// Package webserve implements the paper's Section-2 system over net/http:
// a repository server and local site servers that serve real HTML and
// multimedia bytes, with the local servers rewriting MO URLs on the fly
// from their reference databases, plus a client that downloads a page the
// way the paper's browser does — the local chain and the repository chain
// in parallel over persistent connections. It exists to demonstrate (and
// integration-test) that the planner's placements drive a working serving
// system, not only the simulator.
package webserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/rng"
	"repro/internal/workload"
)

// Self-verifying payloads: every multimedia object the cluster serves is a
// pure function of (workload seed, object ID, serving source), with a
// fixed-width header embedding those coordinates. Any fetched body can
// therefore be verified against the plan by regenerating it, with no
// side-channel state — the client, the scrubber and the tests all share one
// end-to-end replication-correctness oracle (oval-style payloads).
const (
	// contentBlockSize is the repeating unit of an object's synthetic body.
	contentBlockSize = 4096
	// PayloadHeaderLen is the exact byte length of the payload header line.
	// The fixed fields take 42 bytes; the rest holds the obj/src/len
	// decimals and space padding before the newline terminator.
	PayloadHeaderLen = 96
	// RepoSource is the PayloadHeader.Source value of repository-served
	// payloads; replica copies carry their site index instead.
	RepoSource = -1
)

// payloadContentStream labels the rng child stream the body keystream is
// derived from, disjoint from every other stream family in the repo.
const payloadContentStream uint64 = 421

// PayloadHeader is the decoded form of a payload's leading PayloadHeaderLen bytes.
type PayloadHeader struct {
	// Object is the multimedia object the payload claims to be.
	Object workload.ObjectID
	// Source identifies who generated the copy: a site index, or
	// RepoSource for the repository's authoritative copy.
	Source int
	// Seed is the workload seed the content was derived from.
	Seed uint64
	// Length is the total payload length, header included.
	Length int64
}

// EncodePayloadHeader renders the header as its fixed-width PayloadHeaderLen-byte line.
func EncodePayloadHeader(h PayloadHeader) []byte {
	// Room for the widest line, three 20-character decimals; the frame cuts
	// what overflows it.
	b := make([]byte, 0, 128)
	b = strconv.AppendInt(append(b, "REPL1 obj="...), int64(h.Object), 10)
	b = strconv.AppendInt(append(b, " src="...), int64(h.Source), 10)
	b = appendHex(append(b, " seed="...), h.Seed, 16)
	b = strconv.AppendInt(append(b, " len="...), h.Length, 10)
	for len(b) < PayloadHeaderLen {
		b = append(b, ' ')
	}
	b = b[:PayloadHeaderLen]
	b[PayloadHeaderLen-1] = '\n'
	return b
}

// appendHex appends the low width hex digits of v, zero-padded (%0*x).
func appendHex(b []byte, v uint64, width int) []byte {
	for i := width - 1; i >= 0; i-- {
		b = append(b, "0123456789abcdef"[v>>(4*uint(i))&0xf])
	}
	return b
}

// field returns the token that follows key in line, up to the next space.
// It is lenient; DecodePayloadHeader's canonical check is what is strict.
func field(line []byte, key string) []byte {
	_, rest, _ := bytes.Cut(line, []byte(key))
	tok, _, _ := bytes.Cut(rest, []byte(" "))
	return tok
}

// DecodePayloadHeader parses a payload's leading header line. It never
// panics on arbitrary input; malformed headers return an *IntegrityError.
func DecodePayloadHeader(data []byte) (PayloadHeader, error) {
	var h PayloadHeader
	if len(data) < PayloadHeaderLen {
		return h, &IntegrityError{Reason: fmt.Sprintf("payload too short for header (%d bytes)", len(data))}
	}
	if data[PayloadHeaderLen-1] != '\n' {
		return h, &IntegrityError{Reason: "payload header not newline-terminated"}
	}
	line := bytes.TrimRight(data[:PayloadHeaderLen-1], " ")
	obj, err1 := strconv.Atoi(string(field(line, "REPL1 obj=")))
	src, err2 := strconv.Atoi(string(field(line, " src=")))
	seed, err3 := strconv.ParseUint(string(field(line, " seed=")), 16, 64)
	length, err4 := strconv.ParseInt(string(field(line, " len=")), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return h, &IntegrityError{Reason: fmt.Sprintf("malformed payload header %q", line)}
	}
	if obj < 0 || length < PayloadHeaderLen {
		return h, &IntegrityError{Reason: fmt.Sprintf("payload header out of range (obj=%d len=%d)", obj, length)}
	}
	// The fixed width must round-trip: a header whose re-encoding differs
	// (sign tricks, leading zeros, trailing garbage) is not canonical.
	h = PayloadHeader{Object: workload.ObjectID(obj), Source: src, Seed: seed, Length: length}
	if !bytes.Equal(EncodePayloadHeader(h), data[:PayloadHeaderLen]) {
		return h, &IntegrityError{Object: h.Object, Reason: "non-canonical payload header"}
	}
	return h, nil
}

// IntegrityError reports a payload that fails end-to-end verification —
// wrong object, wrong seed, truncated, or bit-flipped. The client's
// failureReason classifies it as "corrupt", making verification failures
// retryable (and fallback-able) like any transient fault.
type IntegrityError struct {
	Object workload.ObjectID
	Reason string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("webserve: object %d integrity: %s", e.Object, e.Reason)
}

// fillBlock writes the body block of (seed, k, src) over b: little-endian
// word i is rng.Mix(s + i*rng.Gamma), reference SplitMix64 run from the seed
// s of the block's Split stream, so the generator's state is its seed. Two
// sources' copies of one object are distinguishable bytes of one size.
func fillBlock(b []byte, seed uint64, k workload.ObjectID, src int) {
	s := rng.New(seed).Split(payloadContentStream, uint64(k), uint64(src+1)).Seed()
	for i := 0; i < len(b); i, s = i+8, s+rng.Gamma {
		binary.LittleEndian.PutUint64(b[i:], rng.Mix(s))
	}
}

// chunkPool lends the chunks object bodies are generated in and move through,
// a server writing one out or a verifier reading one in: no request allocates one.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// chunk is the unit a body moves in, one write or read call each. 128 KB
// is measured, not tuned per host: on live-table1 32 KB pieces spent half
// the CPU in socket syscalls, and 256 KB and 1 MB were no faster.
type chunk [128 << 10]byte

// frameLen is the header and the whole body blocks that fit a chunk.
const frameLen = PayloadHeaderLen + 31*contentBlockSize

// objectReader is one outgoing payload, read or written straight out of a
// pooled chunk: its first frameLen bytes, of which the blocks then repeat.
type objectReader struct {
	buf        *chunk // back in the pool after the last byte
	off, total int64
}

// newObjectReader lays out object k as served by src: the header, the body
// block, and its copies out to the frame's or the object's end.
func newObjectReader(w *workload.Workload, src int, k workload.ObjectID) objectReader {
	r := objectReader{buf: chunkPool.Get().(*chunk), total: int64(w.ObjectSize(k))}
	copy(r.buf[:], EncodePayloadHeader(PayloadHeader{Object: k, Source: src, Seed: w.Seed, Length: r.total}))
	const first = PayloadHeaderLen + contentBlockSize
	fillBlock(r.buf[PayloadHeaderLen:first], w.Seed, k, src)
	for n, end := int64(first), min(r.total, frameLen); n < end; {
		n += int64(copy(r.buf[n:end], r.buf[PayloadHeaderLen:n]))
	}
	return r
}

// next returns the bytes at r.off that lie in one piece in the chunk.
func (r *objectReader) next() []byte {
	at := r.off
	if at >= PayloadHeaderLen {
		at = PayloadHeaderLen + (at-PayloadHeaderLen)%contentBlockSize
	}
	return r.buf[at:min(frameLen, at+r.total-r.off)]
}

func (r *objectReader) Read(p []byte) (int, error) {
	if r.off == r.total {
		return 0, io.EOF
	}
	n := copy(p, r.next())
	if r.off += int64(n); r.off == r.total {
		chunkPool.Put(r.buf)
	}
	return n, nil
}

// ObjectReader streams the self-verifying content of object k as served by
// src (a site index, or RepoSource for the repository) at its workload size:
// the fixed-width header, then the keyed body block repeated and cut to length.
func ObjectReader(w *workload.Workload, src int, k workload.ObjectID) io.Reader {
	r := newObjectReader(w, src, k)
	return &r
}

// anySource makes the verifier accept every valid source.
const anySource = RepoSource - 1

// VerifyObject checks that data is a genuine copy of object k from *some*
// valid source: size, header coordinates and every body byte. All failures
// are *IntegrityError.
func VerifyObject(w *workload.Workload, k workload.ObjectID, data []byte) error {
	return VerifyObjectFrom(w, anySource, k, data)
}

// VerifyObjectFrom is VerifyObject plus a provenance check: the payload
// must declare exactly the expected source, so a replica scrub proves the
// bytes at site src really are site src's copy — not a proxied or stale
// payload that is merely some genuine copy.
func VerifyObjectFrom(w *workload.Workload, src int, k workload.ObjectID, data []byte) error {
	return VerifyObjectStream(w, src, k, bytes.NewReader(data))
}

// VerifyObjectStream is VerifyObjectFrom for a payload still arriving: r is
// checked chunk by chunk and never held whole. A failed Read is returned as
// it is; content failures are *IntegrityError and end the reading early.
func VerifyObjectStream(w *workload.Workload, src int, k workload.ObjectID, r io.Reader) error {
	_, err := verifyStream(w, src, k, r)
	return err
}

// verifyStream is the one verifier: it reads r to its end through a pooled
// chunk (a bytes.Reader writes itself out whole instead), whose first bytes
// hold the regenerated body block, and returns the bytes consumed.
func verifyStream(w *workload.Workload, src int, k workload.ObjectID, r io.Reader) (int64, error) {
	buf := chunkPool.Get().(*chunk)
	defer chunkPool.Put(buf)
	v := payloadVerifier{w: w, src: src, k: k, block: buf[:contentBlockSize]}
	n, err := io.CopyBuffer(&v, r, buf[contentBlockSize:])
	if err == nil {
		err = v.finish()
	}
	return n, err
}

// payloadVerifier checks a payload in the order its bytes arrive, however
// the reads fragment them: the header once its PayloadHeaderLen bytes are
// in, then every body byte against the block the header's coordinates
// regenerate, and at the end the length. Regeneration is the whole check:
// every byte is compared with the one it must be.
type payloadVerifier struct {
	w   *workload.Workload
	src int // the source the payload must declare, or anySource
	k   workload.ObjectID

	n     int64 // bytes consumed
	hdr   [PayloadHeaderLen]byte
	block []byte // pooled
}

// Write checks the next fragment.
func (v *payloadVerifier) Write(p []byte) (int, error) {
	fed := len(p)
	if v.n < PayloadHeaderLen {
		m := copy(v.hdr[v.n:], p)
		v.n, p = v.n+int64(m), p[m:]
		if v.n < PayloadHeaderLen {
			return fed, nil
		}
		if err := v.checkHeader(); err != nil {
			return 0, err
		}
	}
	for len(p) > 0 {
		want := v.block[(v.n-PayloadHeaderLen)%contentBlockSize:]
		want = want[:min(len(want), len(p))]
		if !bytes.Equal(p[:len(want)], want) {
			i := 0
			for p[i] == want[i] {
				i++
			}
			return 0, &IntegrityError{Object: v.k, Reason: fmt.Sprintf("body corrupt at byte %d", v.n+int64(i))}
		}
		v.n, p = v.n+int64(len(want)), p[len(want):]
	}
	return fed, nil
}

// checkHeader compares the completed header with the one object k's
// coordinates regenerate — for the pinned source or, under anySource, the
// valid one the header names — and regenerates that source's body block.
// Only a header that is not its regeneration is decoded, to name what differs.
func (v *payloadVerifier) checkHeader() error {
	w, src := v.w, v.src
	if src == anySource {
		src, _ = strconv.Atoi(string(field(v.hdr[:], " src=")))
	}
	want := PayloadHeader{Object: v.k, Source: src, Seed: w.Seed, Length: int64(w.ObjectSize(v.k))}
	if src >= RepoSource && src < w.NumSites() && bytes.Equal(v.hdr[:], EncodePayloadHeader(want)) {
		fillBlock(v.block, w.Seed, v.k, src)
		return nil
	}
	h, err := DecodePayloadHeader(v.hdr[:])
	switch {
	case err != nil:
		return err
	case h.Object != v.k:
		return &IntegrityError{Object: v.k, Reason: fmt.Sprintf("payload claims object %d", h.Object)}
	case h.Seed != w.Seed:
		return &IntegrityError{Object: v.k, Reason: fmt.Sprintf("payload seed %x, want %x", h.Seed, w.Seed)}
	case h.Length != want.Length:
		return &IntegrityError{Object: v.k, Reason: fmt.Sprintf("payload declares %d bytes, want %d", h.Length, want.Length)}
	case h.Source < RepoSource || h.Source >= w.NumSites():
		return &IntegrityError{Object: v.k, Reason: fmt.Sprintf("payload claims unknown source %d", h.Source)}
	}
	// A canonical header of a valid source differs only from a pinned one.
	return &IntegrityError{Object: v.k, Reason: fmt.Sprintf("payload claims source %d, want %d", h.Source, v.src)}
}

// finish is the check at the stream's clean end.
func (v *payloadVerifier) finish() error {
	switch want := int64(v.w.ObjectSize(v.k)); {
	case v.n != want:
		return &IntegrityError{Object: v.k, Reason: fmt.Sprintf("%d bytes, want %d", v.n, want)}
	case v.n < PayloadHeaderLen:
		return v.checkShort()
	}
	return nil
}

// checkShort verifies an object smaller than the header, which is all
// header: the first v.n bytes of the line its coordinates regenerate for the
// pinned source or, under anySource, a valid one.
func (v *payloadVerifier) checkShort() error {
	for src := RepoSource; src < v.w.NumSites(); src++ {
		h := PayloadHeader{Object: v.k, Source: src, Seed: v.w.Seed, Length: v.n}
		if (v.src == anySource || v.src == src) && bytes.HasPrefix(EncodePayloadHeader(h), v.hdr[:v.n]) {
			return nil
		}
	}
	return &IntegrityError{Object: v.k, Reason: fmt.Sprintf("%d bytes are not the start of the object's header", v.n)}
}
