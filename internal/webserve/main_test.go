package webserve

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines running: every
// cluster, server and client a test starts must be closed by the time it
// returns. Closed connections wind down asynchronously, so the count has a
// few seconds to fall back to its value before the first test.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		code = goroutinesSettle(base, 5*time.Second)
	}
	os.Exit(code)
}

// goroutinesSettle waits up to limit for the goroutine count to drop to
// base. On timeout it prints every goroutine's stack and returns 1.
func goroutinesSettle(base int, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d running after the tests, %d before\n\n%s\n",
				runtime.NumGoroutine(), base, buf)
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0
}
