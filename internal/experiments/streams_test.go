package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
)

// studyStreamsSHA pins the seeds scrubStreams and overloadStreams derive
// for runs 0-2 (both overload modes) from Quick's seed.
const studyStreamsSHA = "20483291cef19b5c25a3f5b42bad9222dded65eab1c1a5732684e3e16db089fd"

// TestStudyStreamsKnownAnswer pins the streams whose outputs nothing else
// pins: the scrub report carries only counts, and the overload study's
// rendering did not move when its shed stream was aliased to its arrival
// stream. A renumbered label changes the hash; an aliased one also makes
// two derived seeds equal.
func TestStudyStreamsKnownAnswer(t *testing.T) {
	root := rng.New(Quick().Seed)
	var b strings.Builder
	owner := make(map[uint64]string)
	record := func(name string, s *rng.Stream) {
		fmt.Fprintf(&b, "%s %016x\n", name, s.Seed())
		if prev, ok := owner[s.Seed()]; ok {
			t.Errorf("%s derives %s's seed %016x", name, prev, s.Seed())
		}
		owner[s.Seed()] = name
	}
	for r := range 3 {
		rot, fault, client := scrubStreams(root, r)
		record(fmt.Sprintf("scrub.rot.%d", r), rot)
		record(fmt.Sprintf("scrub.fault.%d", r), fault)
		record(fmt.Sprintf("scrub.client.%d", r), client)
		for mode := range uint64(2) {
			arrivals, jitter, shed := overloadStreams(root, r, mode)
			record(fmt.Sprintf("overload.arrivals.%d.%d", r, mode), arrivals)
			record(fmt.Sprintf("overload.jitter.%d.%d", r, mode), jitter)
			record(fmt.Sprintf("overload.shed.%d.%d", r, mode), shed)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != studyStreamsSHA {
		t.Errorf("study streams hash to %s, pinned %s:\n%s", got, studyStreamsSHA, b.String())
	}
}
