package webserve

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// benchPayload serves one object of the given size into a buffer and
// stream-verifies it: what every /mo/ response costs the two ends, socket
// aside. At 2 KB it is the per-object fixed cost, at 600 KB the per-byte one.
func benchPayload(b *testing.B, size units.ByteSize) {
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.MOClasses = []workload.SizeClass{{Frac: 1, Lo: size, Hi: size}}
	w := workload.MustGenerate(cfg, 66)
	var buf bytes.Buffer
	body := io.Reader(struct{ io.Reader }{&buf}) // read through the chunk, as a response body is
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := workload.ObjectID(i % w.NumObjects())
		buf.Reset()
		if err := writeObject(context.Background(), &buf, w, 0, k); err != nil {
			b.Fatal(err)
		}
		if err := VerifyObjectStream(w, 0, k, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPayloadSmall(b *testing.B)  { benchPayload(b, 2*units.KB) }
func BenchmarkPayloadTable1(b *testing.B) { benchPayload(b, 600*units.KB) }
