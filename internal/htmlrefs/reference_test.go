package htmlrefs

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/units"
	"repro/internal/workload"
)

// refRenderPage and refParseRefs are the document kernels as they stood
// before RenderPage and ParseRefs moved onto one buffer: a fmt-driven
// renderer into a strings.Builder, and a scanner that lower-cases each
// tag's attributes with strings.ToLower. The tests hold the current
// kernels to them byte for byte (the renderer everywhere, the scanner on
// ASCII input, where lower-casing cannot change a byte offset).

func refRenderPage(w *workload.Workload, j workload.PageID, repoBase string) []byte {
	pg := &w.Pages[j]
	var b strings.Builder
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head><title>W%d</title></head>\n<body>\n", j)
	fmt.Fprintf(&b, "<h1>Page W%d (site S%d)</h1>\n", j, pg.Site)
	for _, k := range pg.Compulsory {
		fmt.Fprintf(&b, "<img src=\"%s%s\" alt=\"M%d\">\n", repoBase, MOPath(k), k)
	}
	if len(pg.Optional) > 0 {
		b.WriteString("<ul>\n")
		for _, l := range pg.Optional {
			fmt.Fprintf(&b, "<li><a href=\"%s%s\">optional M%d</a></li>\n", repoBase, MOPath(l.Object), l.Object)
		}
		b.WriteString("</ul>\n")
	}
	refPad(&b, pg.HTMLSize)
	b.WriteString("</body>\n</html>\n")
	return []byte(b.String())
}

func refPad(b *strings.Builder, target units.ByteSize) {
	for units.ByteSize(b.Len()) < target-units.ByteSize(len(filler)) {
		b.WriteString(filler)
	}
}

func refParseRefs(doc []byte) []Ref {
	var refs []Ref
	i := 0
	for i < len(doc) {
		lt := refIndexByteFrom(doc, '<', i)
		if lt < 0 {
			break
		}
		gt := refIndexByteFrom(doc, '>', lt)
		if gt < 0 {
			break
		}
		tag := doc[lt+1 : gt]
		name, attrs := refSplitTag(tag)
		var wantAttr string
		var optional bool
		switch strings.ToLower(name) {
		case "img", "embed", "source":
			wantAttr = "src"
		case "a":
			wantAttr = "href"
			optional = true
		}
		if wantAttr != "" {
			if start, end, ok := refFindAttrValue(attrs, wantAttr); ok {
				absStart := lt + 1 + len(name) + start
				absEnd := lt + 1 + len(name) + end
				url := string(doc[absStart:absEnd])
				if k, ok := refParseMOURL(url); ok {
					refs = append(refs, Ref{Object: k, Optional: optional, Start: absStart, End: absEnd})
				}
			}
		}
		i = gt + 1
	}
	return refs
}

func refIndexByteFrom(b []byte, c byte, from int) int {
	for i := from; i < len(b); i++ {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func refSplitTag(tag []byte) (name string, attrs []byte) {
	for i, c := range tag {
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			return string(tag[:i]), tag[i:]
		}
	}
	return string(tag), nil
}

func refFindAttrValue(attrs []byte, attr string) (start, end int, ok bool) {
	lower := strings.ToLower(string(attrs))
	needle := attr + "=\""
	pos := 0
	for {
		idx := strings.Index(lower[pos:], needle)
		if idx < 0 {
			return 0, 0, false
		}
		idx += pos
		if idx > 0 {
			prev := lower[idx-1]
			if prev != ' ' && prev != '\t' && prev != '\n' && prev != '\r' {
				pos = idx + 1
				continue
			}
		}
		valStart := idx + len(needle)
		valEnd := strings.IndexByte(lower[valStart:], '"')
		if valEnd < 0 {
			return 0, 0, false
		}
		return valStart, valStart + valEnd, true
	}
}

func refParseMOURL(url string) (workload.ObjectID, bool) {
	idx := strings.Index(url, MOPathPrefix)
	if idx < 0 {
		return 0, false
	}
	rest := url[idx+len(MOPathPrefix):]
	if rest == "" {
		return 0, false
	}
	id, err := strconv.Atoi(rest)
	if err != nil || id < 0 {
		return 0, false
	}
	return workload.ObjectID(id), true
}
