package webserve

import (
	"bytes"
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
	base, _ := running()
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
	for {
		n, stacks := running()
		if n <= base {
			return 0
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d running after the tests, %d before\n\n%s\n", n, base, stacks)
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// running counts the goroutines in an all-goroutine stack dump, less the
// os/signal loop: the fuzz engine starts it with signal.Notify and it
// never exits, so it is the runtime's, not a test's.
func running() (int, []byte) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if len(bytes.TrimSpace(g)) > 0 && !bytes.Contains(g, []byte("\nos/signal.loop()")) {
			count++
		}
	}
	return count, buf
}
