package webserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestPayloadHeaderRoundTrip pins the codec on representative coordinates,
// including the repository sentinel and the widest values the workloads
// produce.
func TestPayloadHeaderRoundTrip(t *testing.T) {
	cases := []PayloadHeader{
		{Object: 0, Source: RepoSource, Seed: 0, Length: PayloadHeaderLen},
		{Object: 116, Source: 2, Seed: 66, Length: 49152},
		{Object: 9999999, Source: 127, Seed: ^uint64(0), Length: 1 << 33},
	}
	for _, h := range cases {
		enc := EncodePayloadHeader(h)
		if len(enc) != PayloadHeaderLen || enc[PayloadHeaderLen-1] != '\n' {
			t.Fatalf("%+v: bad frame: %d bytes, last %q", h, len(enc), enc[len(enc)-1])
		}
		got, err := DecodePayloadHeader(enc)
		if err != nil {
			t.Fatalf("%+v: decode: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip lost information: %+v vs %+v", h, got)
		}
	}
}

// TestVerifyObjectFromProvenance pins the scrubber's stricter check: a
// payload that is a genuine copy but claims another source is still a finding
// — site 0's store holding the repository's copy is mis-replication, not
// integrity.
func TestVerifyObjectFromProvenance(t *testing.T) {
	w := tinyWorkload(t)
	const k = workload.ObjectID(3)

	site0, err := io.ReadAll(ObjectReader(w, 0, k))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := io.ReadAll(ObjectReader(w, RepoSource, k))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(site0, repo) {
		t.Fatal("site and repository copies are identical — provenance is unprovable")
	}

	// Both copies are genuine to the any-source check…
	if err := VerifyObject(w, k, site0); err != nil {
		t.Fatal(err)
	}
	if err := VerifyObject(w, k, repo); err != nil {
		t.Fatal(err)
	}
	// … but only the right one passes the provenance check.
	if err := VerifyObjectFrom(w, 0, k, site0); err != nil {
		t.Fatal(err)
	}
	if err := VerifyObjectFrom(w, 0, k, repo); err == nil {
		t.Fatal("repository copy accepted as site 0's replica")
	}
	if err := VerifyObjectFrom(w, 1, k, site0); err == nil {
		t.Fatal("site 0 copy accepted as site 1's replica")
	}
}

// TestVerifyRejectsForgedChecksum pins the byte-compare layer: a forger who
// tampers with the body and rewrites the header to agree with it gains
// nothing, because the header carries no digest of the body and the bytes
// are not the keyed stream.
func TestVerifyRejectsForgedChecksum(t *testing.T) {
	w := tinyWorkload(t)
	const k = workload.ObjectID(0)
	data, err := io.ReadAll(ObjectReader(w, RepoSource, k))
	if err != nil {
		t.Fatal(err)
	}
	genuine := bytes.Clone(data[:PayloadHeaderLen])
	// Forge: flip one body byte, then rewrite the header from what it claims.
	data[len(data)-1] ^= 0xFF
	h, err := DecodePayloadHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, EncodePayloadHeader(h))
	if !bytes.Equal(data[:PayloadHeaderLen], genuine) {
		t.Fatalf("re-encoded header differs from the genuine one:\n%q\n%q", data[:PayloadHeaderLen], genuine)
	}
	var ie *IntegrityError
	if err := VerifyObject(w, k, data); !errors.As(err, &ie) {
		t.Fatalf("forged body under a canonical header: %v, want an *IntegrityError", err)
	}
}

// TestKeystreamKnownAnswer pins every payload byte: rng.Mix is reference
// SplitMix64 (its published outputs from state 0), a body starts with that
// generator run from the block's Split seed, and the two payloads gencorpus
// commits hash to their pinned SHA-256s. A change to any of the three moves
// every object on the wire and needs the corpus regenerated in the same
// commit.
func TestKeystreamKnownAnswer(t *testing.T) {
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := rng.Mix(uint64(i) * rng.Gamma); got != want {
			t.Errorf("SplitMix64 output %d from state 0: %#016x, want %#016x", i, got, want)
		}
	}

	w := fuzzWorkload(t)
	repo, err := io.ReadAll(ObjectReader(w, RepoSource, 0))
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(w.Seed).Split(payloadContentStream, 0, uint64(RepoSource+1)).Seed()
	var want [24]byte
	for i := range 3 {
		binary.LittleEndian.PutUint64(want[8*i:], rng.Mix(s+uint64(i)*rng.Gamma))
	}
	if got := repo[PayloadHeaderLen:][:len(want)]; !bytes.Equal(got, want[:]) {
		t.Errorf("body starts %x, want SplitMix64 from the block's Split seed: %x", got, want)
	}

	site, err := io.ReadAll(ObjectReader(w, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		sha     string
	}{
		{"genuine-repo", repo, "6b92e30d1cb5ce2d1995a640665411ea18fc8fcd277dfd48e2fba3bc730b3f5e"},
		{"genuine-site", site, "155ef217f98b9e428fd1b110fb8fdb0ac5d95007fe54a73fe636ca7da2000384"},
	} {
		if sum := sha256.Sum256(c.payload); hex.EncodeToString(sum[:]) != c.sha {
			t.Errorf("%s: payload SHA-256 %x, want %s", c.name, sum, c.sha)
		}
	}
}

// corpusEntry reads one committed seed of FuzzPayloadRoundTrip.
func corpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzPayloadRoundTrip", name))
	if err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(strings.TrimSpace(string(file)), "\n")
	quoted, ok := strings.CutPrefix(line, "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if !ok || err != nil {
		t.Fatalf("%s: not a []byte(\"…\") corpus file: %v", name, err)
	}
	return []byte(data)
}

// TestCommittedCorpusIsCurrent fails on a corpus left stale by a keystream
// or codec change: the genuine entries must verify against today's code
// and the mutated ones must fail the way they were mutated.
func TestCommittedCorpusIsCurrent(t *testing.T) {
	w := fuzzWorkload(t)
	for _, c := range []struct {
		name   string
		k      workload.ObjectID
		reason string // "" for a genuine payload
	}{
		{"genuine-repo", 0, ""},
		{"genuine-site", 3, ""},
		{"bit-flip", 3, fmt.Sprintf("body corrupt at byte %d", w.ObjectSize(3)/2)},
		{"truncated", 0, fmt.Sprintf("%d bytes, want %d", w.ObjectSize(0)/2, w.ObjectSize(0))},
	} {
		err := VerifyObject(w, c.k, corpusEntry(t, c.name))
		var ie *IntegrityError
		switch {
		case c.reason == "" && err != nil:
			t.Errorf("%s no longer verifies (regenerate: go run ./internal/webserve/gencorpus): %v", c.name, err)
		case c.reason != "" && (!errors.As(err, &ie) || ie.Reason != c.reason):
			t.Errorf("%s: %v, want an IntegrityError saying %q", c.name, err, c.reason)
		}
	}
}

// TestShortObjects pins the rule for objects around the header's length: one
// shorter than the header is a prefix of the header and verifies as exactly
// that; at and past PayloadHeaderLen the full check applies.
func TestShortObjects(t *testing.T) {
	for _, size := range []int{1, 42, 95, PayloadHeaderLen, PayloadHeaderLen + 1} {
		cfg := workload.SmallConfig()
		cfg.Sites = 2
		cfg.MOClasses = []workload.SizeClass{{Frac: 1, Lo: units.ByteSize(size), Hi: units.ByteSize(size)}}
		w := workload.MustGenerate(cfg, 66)
		const k = workload.ObjectID(5)
		read := func(src int) []byte {
			data, err := io.ReadAll(ObjectReader(w, src, k))
			if err != nil || len(data) != size {
				t.Fatalf("size %d: read %d bytes, err %v", size, len(data), err)
			}
			return data
		}
		genuine := read(0)
		flipped := append([]byte(nil), genuine...)
		flipped[size-1] ^= 0x01
		for _, c := range []struct {
			name         string
			data         []byte
			asSite0, any bool // what VerifyObjectFrom(site 0) and VerifyObject accept
		}{
			{"genuine", genuine, true, true},
			{"flipped", flipped, false, false},
			// One byte of header names no source, so every source's is site 0's.
			{"wrong source", read(1), size == 1, true},
			{"one byte short", genuine[:size-1], false, false},
			{"one byte extra", append(append([]byte(nil), genuine...), ' '), false, false},
		} {
			for _, v := range []struct {
				check string
				err   error
				ok    bool
			}{
				{"VerifyObjectFrom", VerifyObjectFrom(w, 0, k, c.data), c.asSite0},
				{"VerifyObject", VerifyObject(w, k, c.data), c.any},
			} {
				var ie *IntegrityError
				if v.ok && v.err != nil || !v.ok && !errors.As(v.err, &ie) {
					t.Errorf("size %d, %s copy, %s: %v, want ok=%v", size, c.name, v.check, v.err, v.ok)
				}
			}
		}
	}
}
