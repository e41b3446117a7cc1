// Package htmlrefs implements the page-handling machinery of the paper's
// Section 2: rendering synthetic HTML documents that embed a page's
// multimedia objects, parsing documents to extract those references ("upon
// creation or update of an HTML file ... the server parses the document and
// retrieves the URLs of multimedia content"), the per-server reference
// database that records which objects are to be downloaded locally, and the
// on-the-fly URL rewriting a local server performs while serving the HTML
// ("the local server queries the reference database and replaces on the fly
// the remote URLs with the local ones").
package htmlrefs

import (
	"bytes"
	"strconv"
	"strings"

	"repro/internal/units"
	"repro/internal/workload"
)

// MOPathPrefix is the URL path prefix under which multimedia objects are
// served on both the repository and the local servers: /mo/<objectID>.
const MOPathPrefix = "/mo/"

// PagePathPrefix is the URL path prefix of pages on local servers:
// /page/<pageID>.
const PagePathPrefix = "/page/"

// MOPath returns the URL path of object k.
func MOPath(k workload.ObjectID) string {
	return MOPathPrefix + strconv.Itoa(int(k))
}

// PagePath returns the URL path of page j.
func PagePath(j workload.PageID) string {
	return PagePathPrefix + strconv.Itoa(int(j))
}

// ParseMOPath extracts the object ID from a /mo/<id> path; ok is false for
// anything else.
func ParseMOPath(path string) (workload.ObjectID, bool) {
	if !strings.HasPrefix(path, MOPathPrefix) {
		return 0, false
	}
	id, err := strconv.Atoi(path[len(MOPathPrefix):])
	if err != nil || id < 0 {
		return 0, false
	}
	return workload.ObjectID(id), true
}

// ParsePagePath extracts the page ID from a /page/<id> path.
func ParsePagePath(path string) (workload.PageID, bool) {
	if !strings.HasPrefix(path, PagePathPrefix) {
		return 0, false
	}
	id, err := strconv.Atoi(path[len(PagePathPrefix):])
	if err != nil || id < 0 {
		return 0, false
	}
	return workload.PageID(id), true
}

// RenderPage produces the stored form of page j's HTML document H_j: a
// valid document embedding every compulsory object as an <img> and every
// optional object as an <a href> link, with all MO URLs pointing at the
// repository (repoBase, e.g. "http://repo.example.com") — the form pages
// have *before* the serving-time rewrite. Filler prose pads the document to
// approximately the page's HTMLSize. The document is appended into one
// buffer sized to it exactly, which the caller owns.
func RenderPage(w *workload.Workload, j workload.PageID, repoBase string) []byte {
	pg := &w.Pages[j]
	// Every reference line is its fixed text, the base and MO path, and the
	// object ID written twice (in the URL and in the visible label).
	size := len(headOpen) + len(headMid) + len(headSite) + len(headClose) + 2*decimalLen(int(j)) + decimalLen(int(pg.Site))
	refLine := len(repoBase) + len(MOPathPrefix)
	for _, k := range pg.Compulsory {
		size += len(imgOpen) + refLine + len(imgMid) + len(imgClose) + 2*decimalLen(int(k))
	}
	if len(pg.Optional) > 0 {
		size += len(listOpen) + len(listClose)
		for _, l := range pg.Optional {
			size += len(linkOpen) + refLine + len(linkMid) + len(linkClose) + 2*decimalLen(int(l.Object))
		}
	}
	size += fillerParagraphs(size, pg.HTMLSize)*len(filler) + len(footer)

	b := make([]byte, 0, size)
	b = append(b, headOpen...)
	b = strconv.AppendInt(b, int64(j), 10)
	b = append(b, headMid...)
	b = strconv.AppendInt(b, int64(j), 10)
	b = append(b, headSite...)
	b = strconv.AppendInt(b, int64(pg.Site), 10)
	b = append(b, headClose...)
	for _, k := range pg.Compulsory {
		b = appendRef(b, imgOpen, repoBase, k, imgMid)
		b = append(b, imgClose...)
	}
	if len(pg.Optional) > 0 {
		b = append(b, listOpen...)
		for _, l := range pg.Optional {
			b = appendRef(b, linkOpen, repoBase, l.Object, linkMid)
			b = append(b, linkClose...)
		}
		b = append(b, listClose...)
	}
	b = pad(b, pg.HTMLSize)
	return append(b, footer...)
}

// The fixed text of a rendered document. RenderPage sizes its buffer from
// these lengths before it appends them, so a line added to the document
// needs its length added to the size too (the reference-renderer test
// fails on any document that does not fill its buffer exactly).
const (
	headOpen  = "<!DOCTYPE html>\n<html>\n<head><title>W"
	headMid   = "</title></head>\n<body>\n<h1>Page W"
	headSite  = " (site S"
	headClose = ")</h1>\n"
	imgOpen   = `<img src="`
	imgMid    = `" alt="M`
	imgClose  = "\">\n"
	listOpen  = "<ul>\n"
	linkOpen  = `<li><a href="`
	linkMid   = `">optional M`
	linkClose = "</a></li>\n"
	listClose = "</ul>\n"
	footer    = "</body>\n</html>\n"
	filler    = "<p>Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod tempor incididunt ut labore et dolore magna aliqua.</p>\n"
)

// appendRef appends one reference line up to its label: open, the object's
// URL at repoBase, mid and the object ID.
func appendRef(b []byte, open, repoBase string, k workload.ObjectID, mid string) []byte {
	b = append(b, open...)
	b = append(b, repoBase...)
	b = append(b, MOPathPrefix...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, mid...)
	return strconv.AppendInt(b, int64(k), 10)
}

// decimalLen is the length of v ≥ 0 written in decimal.
func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// pad appends filler paragraphs until the document reaches target bytes
// (skipped when the references alone already exceed it).
func pad(b []byte, target units.ByteSize) []byte {
	for range fillerParagraphs(len(b), target) {
		b = append(b, filler...)
	}
	return b
}

// fillerParagraphs is the number of paragraphs pad appends to an n-byte
// document: the fewest that bring it to target-len(filler) bytes.
func fillerParagraphs(n int, target units.ByteSize) int {
	short := target - units.ByteSize(len(filler)) - units.ByteSize(n)
	if short <= 0 {
		return 0
	}
	return int((short + units.ByteSize(len(filler)) - 1) / units.ByteSize(len(filler)))
}

// Ref is one multimedia reference found in a document: the object, whether
// it is an embedded (compulsory) image or an optional link, and the byte
// range [Start, End) of the URL value inside the document.
type Ref struct {
	Object   workload.ObjectID
	Optional bool
	Start    int
	End      int
}

// ParseRefs scans an HTML document for MO references. It is a small,
// purpose-built scanner (stdlib only): it walks tags, finds src/href
// attribute values whose path component matches /mo/<id>, and classifies
// <img>/<embed>/<source> as compulsory and <a> as optional. Tag and
// attribute names match under ASCII case folding only, as HTML defines
// them: a non-ASCII byte never matches a name's letter, and the scan reads
// the original bytes, so every offset indexes into doc itself and rewrites
// can splice in place. The references come back in document order; on
// any document RenderPage writes, the returned slice is the scan's only
// allocation.
func ParseRefs(doc []byte) []Ref {
	var refs []Ref
	for i := 0; i < len(doc); {
		lt := bytes.IndexByte(doc[i:], '<')
		if lt < 0 {
			break
		}
		lt += i
		gt := bytes.IndexByte(doc[lt:], '>')
		if gt < 0 {
			break
		}
		gt += lt
		i = gt + 1
		tag := doc[lt+1 : gt]
		nameLen := 0
		for nameLen < len(tag) && !isSpace(tag[nameLen]) {
			nameLen++
		}
		name, attrs := tag[:nameLen], tag[nameLen:]
		var attr string
		var optional bool
		switch {
		case foldEqual(name, "img"), foldEqual(name, "embed"), foldEqual(name, "source"):
			attr = "src"
		case foldEqual(name, "a"):
			attr, optional = "href", true
		default:
			continue
		}
		start, end, ok := findAttrValue(attrs, attr)
		if !ok {
			continue
		}
		start += lt + 1 + nameLen
		end += lt + 1 + nameLen
		if k, ok := parseMOURL(doc[start:end]); ok {
			refs = append(refs, Ref{Object: k, Optional: optional, Start: start, End: end})
		}
	}
	return refs
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// foldEqual reports whether b spells the lower-case ASCII name under ASCII
// case folding.
func foldEqual(b []byte, name string) bool {
	if len(b) != len(name) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// findAttrValue locates attr="value" inside an attribute section — the
// first attr=" whose name is preceded by whitespace, not part of a longer
// name — and returns the value's byte range relative to the section start.
func findAttrValue(attrs []byte, attr string) (start, end int, ok bool) {
	for from := 0; ; {
		eq := bytes.IndexByte(attrs[from:], '=')
		if eq < 0 {
			return 0, 0, false
		}
		eq += from
		from = eq + 1
		at := eq - len(attr)
		if at < 0 || from == len(attrs) || attrs[from] != '"' || !foldEqual(attrs[at:eq], attr) ||
			(at > 0 && !isSpace(attrs[at-1])) {
			continue
		}
		n := bytes.IndexByte(attrs[from+1:], '"')
		if n < 0 {
			return 0, 0, false
		}
		return from + 1, from + 1 + n, true
	}
}

// parseMOURL extracts the object ID from an absolute or relative MO URL:
// whatever precedes the first /mo/, then an ID that ParseMOPath accepts.
func parseMOURL(url []byte) (workload.ObjectID, bool) {
	idx := bytes.Index(url, moPathPrefix)
	if idx < 0 {
		return 0, false
	}
	id, err := strconv.Atoi(string(url[idx+len(MOPathPrefix):]))
	if err != nil || id < 0 {
		return 0, false
	}
	return workload.ObjectID(id), true
}

var moPathPrefix = []byte(MOPathPrefix)
