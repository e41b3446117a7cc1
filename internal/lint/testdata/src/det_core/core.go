// Positive determinism fixture: the package is named "core", one of the
// deterministic packages, so every ambient-state entry point must fire.
package core

import (
	"math/rand"
	"os"
	"time"
)

// Bad reaches for every forbidden ambient-state entry point.
func Bad() time.Duration {
	start := time.Now()      // want "determinism: time.Now \(wall clock\)"
	_ = os.Getenv("HOME")    // want "determinism: os.Getenv \(ambient environment\)"
	_ = rand.Intn(4)         // want "determinism: math/rand.Intn \(global rand\)"
	rand.Shuffle(1, nil)     // want "determinism: math/rand.Shuffle \(global rand\)"
	time.Sleep(time.Second)  // want "determinism: time.Sleep \(wall clock\)"
	return time.Since(start) // want "determinism: time.Since \(wall clock\)"
}

// Good shows the legal constructions: explicit-seed constructors and plain
// duration arithmetic never touch ambient state.
func Good(epoch time.Time) (*rand.Rand, time.Duration) {
	r := rand.New(rand.NewSource(42))
	return r, epoch.Sub(time.Unix(0, 0))
}
