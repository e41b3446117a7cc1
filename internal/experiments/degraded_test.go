package experiments

import "testing"

func TestDegradedModeShape(t *testing.T) {
	fig, err := DegradedMode(tiny())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"Proposed (50% storage)", "Full replication",
		"No replication", "Repository only",
	}
	for _, name := range names {
		s := seriesByName(fig, name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		if len(s.X) != len(availabilityGrid) {
			t.Errorf("%s has %d points, want %d", name, len(s.X), len(availabilityGrid))
		}
	}
	// The repository-only floor is availability-independent: flat.
	floor := seriesByName(fig, "Repository only")
	for i := 1; i < len(floor.Y); i++ {
		if floor.Y[i] != floor.Y[0] {
			t.Errorf("repository-only series not flat: %v", floor.Y)
		}
	}
	// Replication only helps while the site answers: as availability drops,
	// the replicated policies decay toward the repository-only floor.
	for _, name := range names[:2] {
		s := seriesByName(fig, name)
		healthy, worst := s.Y[0], s.Y[len(s.Y)-1]
		if worst <= healthy {
			t.Errorf("%s did not degrade: healthy %+.1f%%, 50%% availability %+.1f%%",
				name, healthy, worst)
		}
		if healthy >= floor.Y[0] {
			t.Errorf("%s healthy (%+.1f%%) no better than repository-only floor (%+.1f%%)",
				name, healthy, floor.Y[0])
		}
	}
}
