package webserve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestVerifyIsFragmentationInvariant pins the stream verifier's contract:
// whatever sizes the reads come in, a genuine payload verifies and every
// mutation of it is an *IntegrityError — the same verdict the whole-slice
// entry points give — while a failed read surfaces as itself.
func TestVerifyIsFragmentationInvariant(t *testing.T) {
	w := tinyWorkload(t)
	var k workload.ObjectID
	for int64(w.ObjectSize(k)) < PayloadHeaderLen+3*contentBlockSize {
		k++
	}
	reencode := func(edit func(*PayloadHeader)) func([]byte) []byte {
		return func(d []byte) []byte {
			h, err := DecodePayloadHeader(d)
			if err != nil {
				t.Fatal(err)
			}
			edit(&h)
			copy(d, EncodePayloadHeader(h))
			return d
		}
	}
	// at < 0 counts from the end.
	flip := func(at int) func([]byte) []byte {
		return func(d []byte) []byte {
			d[(at+len(d))%len(d)] ^= 0x01
			return d
		}
	}
	cut := func(at int) func([]byte) []byte {
		return func(d []byte) []byte { return d[:(at+len(d))%len(d)] }
	}
	const boundary = PayloadHeaderLen + contentBlockSize
	mutations := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flip first body byte", flip(PayloadHeaderLen)},
		{"flip before block boundary", flip(boundary - 1)},
		{"flip at block boundary", flip(boundary)},
		{"flip after block boundary", flip(boundary + 1)},
		{"flip last byte", flip(-1)},
		{"empty", cut(0)},
		{"cut inside header", cut(PayloadHeaderLen / 2)},
		{"cut at block boundary", cut(boundary)},
		{"one byte short", cut(-1)},
		{"one byte extra", func(d []byte) []byte { return append(d, d[len(d)-contentBlockSize]) }},
		{"wrong object", reencode(func(h *PayloadHeader) { h.Object++ })},
		{"wrong seed", reencode(func(h *PayloadHeader) { h.Seed++ })},
		{"other source", reencode(func(h *PayloadHeader) { h.Source = 1 })},
		{"unknown source", reencode(func(h *PayloadHeader) { h.Source = w.NumSites() })},
		{"wrong len", reencode(func(h *PayloadHeader) { h.Length++ })},
		{"flip header padding byte", flip(PayloadHeaderLen - 2)},
		{"forged body under a re-encoded header", func(d []byte) []byte {
			d[len(d)-1] ^= 0xFF
			return reencode(func(*PayloadHeader) {})(d)
		}},
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"chunks", func(r io.Reader) io.Reader { return struct{ io.Reader }{r} }},
		{"one byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data with error", iotest.DataErrReader},
	}
	for _, src := range []int{RepoSource, 0} {
		genuine, err := io.ReadAll(ObjectReader(w, src, k))
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, data []byte, wantOK bool) {
			t.Helper()
			if got := VerifyObject(w, k, data) == nil; got != wantOK {
				t.Errorf("src %d, %s: VerifyObject ok=%v, want %v", src, name, got, wantOK)
			}
			for _, expect := range []int{anySource, src} {
				for _, rd := range readers {
					n, err := verifyStream(w, expect, k, rd.wrap(bytes.NewReader(data)))
					var ie *IntegrityError
					switch {
					case wantOK && (err != nil || n != int64(len(data))):
						t.Errorf("src %d, %s, %s reads: read %d of %d bytes, err %v", src, name, rd.name, n, len(data), err)
					case !wantOK && !errors.As(err, &ie):
						t.Errorf("src %d, %s, %s reads: err %v, want an *IntegrityError", src, name, rd.name, err)
					}
				}
			}
		}
		check("genuine", genuine, true)
		for _, m := range mutations {
			check(m.name, m.mutate(append([]byte(nil), genuine...)), false)
		}

		// A transfer that dies mid-body is a transport failure, not a finding.
		dying := io.MultiReader(bytes.NewReader(genuine[:len(genuine)/2]), iotest.ErrReader(io.ErrUnexpectedEOF))
		err = VerifyObjectStream(w, src, k, dying)
		var ie *IntegrityError
		if !errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ie) {
			t.Errorf("src %d: read failing mid-body gave %v, want io.ErrUnexpectedEOF itself", src, err)
		}
	}
}

// bigWorkload has objects of at least 512 KB, so that holding one whole
// dwarfs everything else a request allocates.
func bigWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 4, 6
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 40, 15, 20
	cfg.CompulsoryMin, cfg.CompulsoryMax = 3, 6
	cfg.OptionalMin, cfg.OptionalMax = 1, 3
	cfg.MOClasses = []workload.SizeClass{{Frac: 1, Lo: 512 * units.KB, Hi: 640 * units.KB}}
	return workload.MustGenerate(cfg, 66)
}

// callRecorder passes bytes through a buffer and records the length of
// every Write and Read call. It has no WriteTo, so a copy out of it reads
// in the copier's buffer, as from a socket.
type callRecorder struct {
	buf           bytes.Buffer
	writes, reads []int
}

func (c *callRecorder) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.buf.Write(p)
}

func (c *callRecorder) Read(p []byte) (int, error) {
	c.reads = append(c.reads, len(p))
	return c.buf.Read(p)
}

// TestBytesMoveInFrames pins the unit a body moves in: the server writes a
// large object, and the verifier reads one, in calls of about a chunk each.
// In 28 KB pieces, socket syscalls were half of a byte-heavy page's CPU.
func TestBytesMoveInFrames(t *testing.T) {
	w := bigWorkload(t)
	const least = 64 << 10
	for k := workload.ObjectID(0); k < 4; k++ {
		var rec callRecorder
		if err := writeObject(context.Background(), &rec, w, RepoSource, k); err != nil {
			t.Fatal(err)
		}
		size := int(w.ObjectSize(k))
		if most := (size + frameLen - 1) / frameLen; len(rec.writes) > most {
			t.Errorf("object %d (%d bytes): %d writes, want at most %d", k, size, len(rec.writes), most)
		}
		for i, n := range rec.writes[:len(rec.writes)-1] {
			if n < least {
				t.Errorf("object %d: write %d of %d carries %d bytes, want at least %d", k, i, len(rec.writes), n, least)
			}
		}
		if err := VerifyObjectStream(w, RepoSource, k, &rec); err != nil {
			t.Fatal(err)
		}
		for i, n := range rec.reads {
			if n < least {
				t.Errorf("object %d: read %d offers a %d-byte buffer, want at least %d", k, i, n, least)
			}
		}
	}
}

// TestFetchPageDoesNotBufferObjects pins that a verified page download
// streams its objects: everything the process allocates for one FetchPage —
// client, verifier and the in-process servers together — is less than a
// single object. Reading bodies whole cost several times the page.
func TestFetchPageDoesNotBufferObjects(t *testing.T) {
	w := bigWorkload(t)
	cluster, err := StartCluster(w, model.AllLocal(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c := cluster.Client(quickOpts())
	if !c.Verify {
		t.Fatal("cluster client does not verify")
	}

	allocs := make([]uint64, 0, 20)
	var before, after runtime.MemStats
	for i := -2; i < cap(allocs); i++ { // two warm-up pages open the connections
		j := workload.PageID((i + 2) % w.NumPages())
		runtime.ReadMemStats(&before)
		res, err := c.FetchPage(cluster.PageURL(j), j)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, k := range w.Pages[j].Compulsory {
			want += int64(w.ObjectSize(k))
		}
		if got := res.LocalChain.Bytes + res.RemoteChain.Bytes; got != want {
			t.Fatalf("page %d: chains report %d bytes, workload says %d", j, got, want)
		}
		if i >= 0 {
			allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
		}
	}
	sort.Slice(allocs, func(a, b int) bool { return allocs[a] < allocs[b] })
	if median, object := allocs[len(allocs)/2], uint64(512*units.KB); median >= object {
		t.Errorf("median %d bytes allocated per verified page, want less than one object (%d)", median, object)
	}
}

// TestCorruptRetryReusesConnection pins what draining after a content
// mismatch buys: the verifier stops at the first bad block of a large body,
// and the retry still travels on the same persistent connection.
func TestCorruptRetryReusesConnection(t *testing.T) {
	w := bigWorkload(t)
	const k = 0
	good, err := io.ReadAll(ObjectReader(w, RepoSource, k))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[PayloadHeaderLen] ^= 0x01

	var hits, conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if hits.Add(1) == 1 {
			rw.Write(bad)
			return
		}
		rw.Write(good)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	opts := quickOpts()
	opts.Retries, opts.BreakerThreshold = 1, -1
	c := NewClientOptions(w, opts)
	c.Verify = true
	n, retries, _, err := c.fetchMO(context.Background(), srv.URL+"/mo/0", k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(good)) || retries != 1 || hits.Load() != 2 {
		t.Fatalf("read %d of %d bytes after %d retries and %d requests, want one corrupt try and one clean", n, len(good), retries, hits.Load())
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("the retry opened a new connection (%d in all): the corrupt body was not drained", got)
	}
}

// TestPayloadPathAllocs pins what one object costs in steady state on each
// side of the wire: the site handler's body path and the stream verifier
// allocate a few words each (the Split seed's stream, a 96-byte header, the
// verifier's own state) and nothing the size of a body block, which both
// keep in their chunkPool chunk. Measured: 2 and 3 allocations; with a
// math/rand keystream it was a 5.4 KB table and a 4 KB block a side.
func TestPayloadPathAllocs(t *testing.T) {
	w := fuzzWorkload(t)
	const site, k = 1, workload.ObjectID(3)
	data, err := io.ReadAll(ObjectReader(w, site, k))
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(data)
	body := io.Reader(struct{ io.Reader }{rd}) // read through the chunk, as a response body is
	for _, c := range []struct {
		name     string
		run      func() error
		measured float64
	}{
		{"serve", func() error { return writeObject(context.Background(), io.Discard, w, site, k) }, 2},
		{"verify", func() error { rd.Reset(data); return VerifyObjectStream(w, site, k, body) }, 3},
	} {
		run := func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, run); allocs > c.measured+1 {
			t.Errorf("%s: %v allocs/object, want <= %v + 1", c.name, allocs, c.measured)
		}
		// The pool is emptied by a collection (and, under -race, at random),
		// so a block-sized allocation every time is what the least of a few
		// runs shows.
		least := uint64(contentBlockSize)
		var before, after runtime.MemStats
		for i := 0; i < 10; i++ {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= contentBlockSize/8 {
			t.Errorf("%s: at least %d bytes allocated per object, want well under a block (%d)", c.name, least, contentBlockSize)
		}
	}
}

// TestPooledBlocksConcurrently serves and stream-verifies different
// (object, source) pairs from 8 goroutines through the shared pool and
// compares every byte with a copy generated beforehand: a chunk returned
// to the pool while its payload is still being written or compared would
// show here as a mismatch, and under -race as a report.
func TestPooledBlocksConcurrently(t *testing.T) {
	w := fuzzWorkload(t)
	const workers, rounds = 8, 300
	type pair struct {
		src int
		k   workload.ObjectID
	}
	pairs := make([]pair, 24)
	want := make([][]byte, len(pairs))
	for i := range pairs {
		pairs[i] = pair{src: i%(w.NumSites()+1) - 1, k: workload.ObjectID(i * 5 % w.NumObjects())}
		data, err := io.ReadAll(ObjectReader(w, pairs[i].src, pairs[i].k))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got bytes.Buffer
			for i := 0; i < rounds; i++ {
				n := (g*7 + i) % len(pairs)
				p := pairs[n]
				got.Reset()
				if err := writeObject(context.Background(), &got, w, p.src, p.k); err != nil {
					t.Errorf("worker %d: serving object %d from %d: %v", g, p.k, p.src, err)
					return
				}
				if !bytes.Equal(got.Bytes(), want[n]) {
					t.Errorf("worker %d: object %d from %d differs from its fresh copy", g, p.k, p.src)
					return
				}
				if err := VerifyObjectStream(w, p.src, p.k, iotest.HalfReader(&got)); err != nil {
					t.Errorf("worker %d: verifying object %d from %d: %v", g, p.k, p.src, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
