package admission

import (
	"context"
	"testing"
	"time"
)

// TestAdmitAllocs pins the cost of the uncontended fast path, the one every
// live request takes: a free slot, no deadline, admit and release. The two
// allocations are releaseFunc's closure and the sync.Once it guards itself
// with; anything above that is new per-request garbage on the serving path.
func TestAdmitAllocs(t *testing.T) {
	ep := NewEndpoint(Config{})
	ctx := context.Background()
	clock := func() time.Duration { return time.Second }
	allocs := testing.AllocsPerRun(1000, func() {
		v, release := ep.Admit(ctx, clock, time.Time{})
		if v != Admitted {
			t.Fatalf("uncontended Admit = %v, want Admitted", v)
		}
		release()
	})
	if allocs > 2 {
		t.Errorf("uncontended Admit + release: %v allocs/op, want <= 2", allocs)
	}
}
