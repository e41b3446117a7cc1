package webserve

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// fixedSizeWorkload has every object exactly size bytes.
func fixedSizeWorkload(size units.ByteSize) *workload.Workload {
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.MOClasses = []workload.SizeClass{{Frac: 1, Lo: size, Hi: size}}
	return workload.MustGenerate(cfg, 66)
}

// benchPayload serves one object of the given size into a buffer and
// stream-verifies it: what every /mo/ response costs the two ends, socket
// aside. At 2 KB it is the per-object fixed cost, at 600 KB the per-byte one.
func benchPayload(b *testing.B, size units.ByteSize) {
	w := fixedSizeWorkload(size)
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

// writeCounter counts the Write calls that reach a connection.
type writeCounter struct {
	net.Conn
	writes int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// BenchmarkPayloadLoopback is BenchmarkPayloadTable1 with the socket in: one
// goroutine writes 600 KB objects over a 127.0.0.1 TCP connection and the
// other stream-verifies each as it arrives. writes/op is the server's Write
// calls per object, which the size of the pooled chunk decides.
func BenchmarkPayloadLoopback(b *testing.B) {
	const size = 600 * units.KB
	w := fixedSizeWorkload(size)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	conn, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	server := &writeCounter{Conn: conn}
	defer server.Close()

	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	served := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if err := writeObject(context.Background(), server, w, 0, workload.ObjectID(i%w.NumObjects())); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	for i := 0; i < b.N; i++ {
		k := workload.ObjectID(i % w.NumObjects())
		if err := VerifyObjectStream(w, 0, k, io.LimitReader(client, int64(size))); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-served; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(server.writes)/float64(b.N), "writes/op")
}
