// Package bitset implements a dense, fixed-capacity bitset over uint64
// words. The replication planner manipulates sets over the global object
// population (Table 1: 15,000 MOs) — membership of an object in a server's
// store, rows of the X/X' allocation matrices — and a packed bitset keeps
// those operations cache-friendly and allocation-free on the hot path.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset. The zero value is an empty set of
// capacity 0; use New for a useful one.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set able to hold bits [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the capacity of the set (number of addressable bits).
func (s *Set) Len() int { return s.n }

// check panics on out-of-range indices: the planner indexes sets with
// validated object IDs, so a bad index is a programming error, not an
// input error.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// DifferenceWith sets s = s \ o.
func (s *Set) DifferenceWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Equal reports whether two sets of equal capacity hold the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order; fn returning false
// stops the iteration early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns the set bits in ascending order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as "{1, 5, 9}"; big sets are summarized.
func (s *Set) String() string {
	const maxShown = 32
	var b strings.Builder
	b.WriteByte('{')
	shown := 0
	s.ForEach(func(i int) bool {
		if shown > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i)
		shown++
		return shown < maxShown
	})
	if c := s.Count(); c > maxShown {
		fmt.Fprintf(&b, ", …(%d total)", c)
	}
	b.WriteByte('}')
	return b.String()
}
