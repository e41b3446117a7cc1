package webserve

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// fuzzWorkload is a fixed tiny workload the fuzz target verifies against —
// built once, outside the fuzz loop.
func fuzzWorkload(tb testing.TB) *workload.Workload {
	tb.Helper()
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 6, 10
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 120, 40, 60
	cfg.MOClasses = []workload.SizeClass{
		{Frac: 0.5, Lo: 2 * units.KB, Hi: 8 * units.KB},
		{Frac: 0.5, Lo: 8 * units.KB, Hi: 32 * units.KB},
	}
	return workload.MustGenerate(cfg, 66)
}

// FuzzPayloadRoundTrip pins the payload codec's contract on arbitrary bytes:
// decoding never panics; any header that decodes is canonical (re-encodes to
// the same PayloadHeaderLen bytes and re-decodes to the same value); and
// full verification never panics regardless of what the header claims. Seeds
// cover genuine payloads from both source kinds plus the classic mutations
// (bit-flip, truncation, padding games, junk).
func FuzzPayloadRoundTrip(f *testing.F) {
	w := fuzzWorkload(f)
	genuine, err := io.ReadAll(ObjectReader(w, RepoSource, 0))
	if err != nil {
		f.Fatal(err)
	}
	site, err := io.ReadAll(ObjectReader(w, 1, 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add(site)
	f.Add(genuine[:PayloadHeaderLen])
	f.Add(genuine[:PayloadHeaderLen-1]) // too short for a header
	flipped := append([]byte(nil), genuine...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte("REPL1 obj=0 src=-1 seed=0000000000000000 len=96"))
	f.Add([]byte("not a payload at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodePayloadHeader(data)
		if err != nil {
			var ie *IntegrityError
			if !errors.As(err, &ie) {
				t.Fatalf("decode failure is %T, want *IntegrityError: %v", err, err)
			}
			return
		}
		enc := EncodePayloadHeader(h)
		if !bytes.Equal(enc, data[:PayloadHeaderLen]) {
			t.Fatalf("accepted header is not canonical:\n%q\nvs\n%q", data[:PayloadHeaderLen], enc)
		}
		h2, err := DecodePayloadHeader(enc)
		if err != nil || h2 != h {
			t.Fatalf("canonical header did not round-trip: %+v vs %+v (%v)", h, h2, err)
		}
		// Full verification must classify, never panic, whatever the header
		// claims — object IDs outside the workload included.
		if int(h.Object) < w.NumObjects() {
			_ = VerifyObject(w, h.Object, data)
			_ = VerifyObjectFrom(w, h.Source, h.Object, data)
		}
	})
}
