package main

import (
	"os"
	"strings"
	"testing"
)

// TestExitCodeOnFindings drives the CLI over a small module with one
// determinism finding and one stale allow: findings exit 1 and print with
// paths relative to the working directory, the stale-allow audit included.
func TestExitCodeOnFindings(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("testdata/mod"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})

	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 1 {
		t.Fatalf("run exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{
		"core/core.go:6: determinism: deterministic package \"core\" imports fixturemod/stamp, a module package outside the deterministic set",
		"stamp/stamp.go:15: stale-allow: //repllint:allow float-compare suppresses nothing",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "2 finding(s)") {
		t.Errorf("stderr = %q, want the count of 2 findings", errOut.String())
	}
}
