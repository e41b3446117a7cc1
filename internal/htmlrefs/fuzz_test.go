package htmlrefs

import (
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzParseRefs hardens the hand-rolled HTML scanner: for arbitrary input
// it must not panic, and every reference it reports must carry a valid
// in-bounds byte range whose content round-trips to the same object ID,
// sits between double quotes, and follows its tag's src= or href= (under
// ASCII case folding). On pure-ASCII input it must also report exactly
// what refParseRefs, the lower-casing scanner it replaced, reports.
// (`go test -fuzz=FuzzParseRefs ./internal/htmlrefs` explores further; the
// seed corpus runs on every `go test`.)
func FuzzParseRefs(f *testing.F) {
	f.Add([]byte(`<img src="http://repo/mo/12">`))
	f.Add([]byte(`<a href="/mo/99">x</a>`))
	f.Add([]byte(`<img\nsrc="/mo/3"\n>`))
	f.Add([]byte(`<IMG SRC="/MO/3">`))
	f.Add([]byte(`<img data-src="/mo/7">`))
	f.Add([]byte(`<`))
	f.Add([]byte(``))
	f.Add([]byte(`<img src="/mo/`))
	f.Add([]byte(`<a href="/mo/18446744073709551616">`)) // overflows int
	f.Add([]byte(`plain text /mo/5`))
	f.Add([]byte(`<embed src="/mo/1"><source src="/mo/2">`))
	for _, c := range nonASCIIAttrCases {
		f.Add([]byte(c.doc))
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		refs := ParseRefs(doc)
		for _, r := range refs {
			if r.Start < 1 || r.End >= len(doc) || r.Start >= r.End {
				t.Fatalf("ref range [%d,%d) cannot sit between quotes in a %d-byte doc", r.Start, r.End, len(doc))
			}
			url := doc[r.Start:r.End]
			k, ok := parseMOURL(url)
			if !ok {
				t.Fatalf("reported ref %q does not parse back", url)
			}
			if k != r.Object {
				t.Fatalf("ref object %d but range holds %d", r.Object, k)
			}
			if doc[r.Start-1] != '"' || doc[r.End] != '"' {
				t.Fatalf("ref [%d,%d) is not quoted: %q", r.Start, r.End, doc)
			}
			attr := "src="
			if r.Optional {
				attr = "href="
			}
			at := r.Start - 1 - len(attr)
			if at < 0 || !foldEqual(doc[at:r.Start-1], attr) {
				t.Fatalf("ref [%d,%d) does not follow %s: %q", r.Start, r.End, attr, doc)
			}
		}
		if isASCII(doc) {
			if want := refParseRefs(doc); !reflect.DeepEqual(refs, want) {
				t.Fatalf("ParseRefs(%q) = %+v, the lower-casing scanner gives %+v", doc, refs, want)
			}
		}
	})
}

// isASCII reports whether every byte of b is ASCII.
func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// FuzzParseMOPath hardens the URL path parser.
func FuzzParseMOPath(f *testing.F) {
	f.Add("/mo/1")
	f.Add("/mo/")
	f.Add("/mo/-3")
	f.Add("/page/5")
	f.Add("/mo/99999999999999999999")
	f.Fuzz(func(t *testing.T, path string) {
		if k, ok := ParseMOPath(path); ok && k < 0 {
			t.Fatalf("accepted negative object ID %d from %q", k, path)
		}
		if j, ok := ParsePagePath(path); ok && j < 0 {
			t.Fatalf("accepted negative page ID %d from %q", j, path)
		}
	})
}
