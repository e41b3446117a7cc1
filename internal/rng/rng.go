// Package rng provides the deterministic random-number plumbing used by the
// workload generator and the simulator. Every experiment in the paper is an
// average over independent runs, and every run touches many logical streams
// (one per site, one per request source, one per perturbation kind); to keep
// runs reproducible and streams independent we derive sub-seeds with a
// SplitMix64 mix instead of sharing one *rand.Rand.
package rng

import (
	"math"
	"math/rand"
)

// Stream is a deterministic random stream. It wraps math/rand with the
// distribution helpers the model needs and with cheap hierarchical seeding:
// math/rand's 607-word table is filled by the first draw, so a stream that
// is only Split or never drawn from costs its 16 bytes.
type Stream struct {
	seed uint64
	r    *rand.Rand // nil until the first draw
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{seed: seed} }

// rand returns the generator, seeding it on the first draw.
func (s *Stream) rand() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(int64(Mix(s.seed))))
	}
	return s.r
}

// Seed returns the seed the stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// Split derives an independent child stream from this stream's seed and a
// label. Splitting is a pure function of (seed, labels...): it does not
// consume state from the parent, so the order in which children are created
// or used cannot perturb sibling streams. It reads only the seed, never the
// lazily built generator, so goroutines may Split one shared parent
// concurrently; drawing from one stream is not safe for concurrent use.
func (s *Stream) Split(labels ...uint64) *Stream {
	seed := s.seed
	for _, l := range labels {
		seed = Mix(seed ^ Mix(l+Gamma))
	}
	return New(seed)
}

// Gamma is SplitMix64's increment: Mix(s), Mix(s+Gamma), Mix(s+2*Gamma), …
// is the reference generator's output from state s.
const Gamma uint64 = 0x9e3779b97f4a7c15

// Mix is SplitMix64's step and finalizer: a bijective avalanche over uint64.
func Mix(z uint64) uint64 {
	z += Gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.rand().Float64() }

// Uint64 returns a uniform 64-bit value. Trace and span identifiers draw
// from dedicated Split-derived streams through this method, so an ID
// sequence is a pure function of (seed, stream label).
func (s *Stream) Uint64() uint64 { return s.rand().Uint64() }

// Uniform returns a uniform value in [lo, hi). It also accepts lo == hi
// (returns lo) so degenerate config ranges behave.
func (s *Stream) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)*s.rand().Float64()
}

// IntN returns a uniform int in [0, n). n must be positive.
func (s *Stream) IntN(n int) int { return s.rand().Intn(n) }

// IntRange returns a uniform int in [lo, hi] inclusive; lo > hi is treated
// as the single value lo.
func (s *Stream) IntRange(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + s.rand().Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rand().Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rand().Perm(n) }

// SampleWithoutReplacement returns k distinct values from [0, n). If k >= n
// it returns all of [0, n) in random order. The result order is random.
//
// It is a partial Fisher-Yates: slot i of a virtual identity permutation
// swaps with a uniform slot j in [i, n), one IntN(n-i) draw per slot, and
// only the first k slots are materialized. The swapped-in values live in a
// sparse overlay, a flat open-addressing table of at least 2k entries
// (linear probing, load at most ½). For k <= 64 the table is a fixed array
// on the stack, so the call allocates only the result; larger k allocate
// one table of 2·2^⌈log2 2k⌉ words beside it, or, when that would be at
// least n words, a dense array of n int32s instead.
func (s *Stream) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	out := make([]int, k)
	if k == 0 {
		return out
	}
	var buf [2 * overlayStackSlots]int
	o := newOverlay(n, k, buf[:])
	r := s.rand()
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		out[i] = o.get(j)
		o.set(j, o.get(i))
	}
	return out
}

// overlayStackSlots is the largest overlay table that lives in the
// caller's stack array: 128 slots of (key, value) hold k <= 64 at load ½.
const overlayStackSlots = 128

// overlay maps a permutation slot to the value swapped into it; a slot
// missing from the table still holds its own index. Entries are (key+1,
// value) pairs, so the zero word marks an empty slot. A dense overlay
// holds value+1 at every slot instead, 0 again meaning the slot's own
// index.
type overlay struct {
	slots []int
	shift uint // 64 - log2(table size): the hash keeps the product's top bits
	mask  int
	dense []int32
}

// newOverlay returns an empty overlay for k keys of [0, n): a table carved
// from buf when it fits there, else a dense array when the table would
// take at least n words, else a table of its own.
func newOverlay(n, k int, buf []int) overlay {
	size, shift := 1, uint(64)
	for size < 2*k {
		size <<= 1
		shift--
	}
	if 2*size > len(buf) {
		if 2*size >= n && n <= math.MaxInt32 {
			return overlay{dense: make([]int32, n)}
		}
		buf = make([]int, 2*size)
	}
	return overlay{slots: buf[:2*size], shift: shift, mask: size - 1}
}

// home is key i's first probe: a Fibonacci hash of the index.
func (o *overlay) home(i int) int {
	return int(uint64(i) * Gamma >> o.shift)
}

func (o *overlay) get(i int) int {
	if o.dense != nil {
		if v := o.dense[i]; v != 0 {
			return int(v) - 1
		}
		return i
	}
	for h := o.home(i); ; h = (h + 1) & o.mask {
		switch o.slots[2*h] {
		case i + 1:
			return o.slots[2*h+1]
		case 0:
			return i
		}
	}
}

func (o *overlay) set(i, v int) {
	if o.dense != nil {
		o.dense[i] = int32(v + 1)
		return
	}
	for h := o.home(i); ; h = (h + 1) & o.mask {
		if key := o.slots[2*h]; key == 0 || key == i+1 {
			o.slots[2*h], o.slots[2*h+1] = i+1, v
			return
		}
	}
}
