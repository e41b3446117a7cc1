package bitset

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestSetClearTest(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
		s.Clear(i)
		if s.Test(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestCount(t *testing.T) {
	s := New(200)
	if s.Count() != 0 {
		t.Fatal("empty set count != 0")
	}
	for i := 0; i < 200; i += 3 {
		s.Set(i)
	}
	if got, want := s.Count(), 67; got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	s.Set(3) // idempotent
	if s.Count() != 67 {
		t.Error("double Set changed count")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Set(-1)":   func() { s.Set(-1) },
		"Set(10)":   func() { s.Set(10) },
		"Test(10)":  func() { s.Test(10) },
		"Clear(-1)": func() { s.Clear(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Error("DifferenceWith with mismatched capacity did not panic")
		}
	}()
	a.DifferenceWith(b)
}

func TestSetOps(t *testing.T) {
	a, b := New(100), New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i) // evens
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i) // multiples of 3
	}

	d := a.Clone()
	d.DifferenceWith(b)

	for k := 0; k < 100; k++ {
		even, triple := k%2 == 0, k%3 == 0
		if d.Test(k) != (even && !triple) {
			t.Errorf("difference wrong at %d", k)
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New(70)
	a.Set(5)
	a.Set(69)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Set(6)
	if a.Equal(b) {
		t.Error("diverged clone still equal")
	}
	if a.Equal(New(71)) {
		t.Error("different capacities reported equal")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := New(300)
	want := []int{1, 64, 65, 128, 250, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
	// Early stop after two elements.
	count := 0
	s.ForEach(func(i int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d bits", count)
	}
}

func TestMembers(t *testing.T) {
	s := New(80)
	in := []int{3, 64, 79}
	for _, i := range in {
		s.Set(i)
	}
	got := s.Members()
	if len(got) != 3 || got[0] != 3 || got[1] != 64 || got[2] != 79 {
		t.Errorf("Members = %v", got)
	}
}

func TestString(t *testing.T) {
	s := New(10)
	if got := s.String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	s.Set(1)
	s.Set(5)
	if got := s.String(); got != "{1, 5}" {
		t.Errorf("String = %q", got)
	}
	big := New(100)
	for i := 0; i < 100; i++ {
		big.Set(i)
	}
	if got := big.String(); len(got) == 0 || got[len(got)-1] != '}' {
		t.Errorf("big String malformed: %q", got)
	}
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Len() != 0 {
		t.Error("zero-capacity set misbehaves")
	}
	s2 := New(-5)
	if s2.Len() != 0 {
		t.Error("negative capacity should clamp to 0")
	}
}

// property: building a set from any list of indices yields exactly the
// distinct indices back, sorted.
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(1 << 16)
		uniq := map[int]bool{}
		for _, r := range raw {
			s.Set(int(r))
			uniq[int(r)] = true
		}
		want := make([]int, 0, len(uniq))
		for k := range uniq {
			want = append(want, k)
		}
		sort.Ints(want)
		got := s.Members()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return s.Count() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// property: De Morgan-ish identity |A| = |A∩B| + |A\B|, with A∩B taken
// as A \ (A\B).
func TestPartitionProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		diff := a.Clone()
		diff.DifferenceWith(b)
		inter := a.Clone()
		inter.DifferenceWith(diff)
		return a.Count() == inter.Count()+diff.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetAndCount(b *testing.B) {
	s := New(15000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(i % 15000)
		if i%1024 == 0 {
			_ = s.Count()
		}
	}
}
