package main

import (
	"os"
	"strings"
	"testing"
)

func TestListRules(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, errOut.String())
	}
	rules := []string{
		"determinism", "rng-stream", "sorted-iteration",
		"float-compare", "error-discipline",
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(rules) {
		t.Fatalf("-list printed %d rules, want %d:\n%s", len(lines), len(rules), out.String())
	}
	for i, rule := range rules {
		if !strings.HasPrefix(lines[i], rule+" ") {
			t.Errorf("-list line %d = %q, want rule %q", i, lines[i], rule)
		}
	}
}

func TestUnknownRule(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-rules", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown rule exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown rule") {
		t.Errorf("stderr missing diagnosis: %s", errOut.String())
	}
}

// TestExitCodeOnFindings drives the CLI over a small module with one
// determinism finding and one stale allow: findings exit 1 and print with
// paths relative to the working directory, and the stale-allow audit runs
// with the whole suite but not under -rules.
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
		t.Fatalf("whole-suite run exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
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

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-rules", "determinism"}, &out, &errOut); code != 1 {
		t.Fatalf("-rules determinism exited %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if strings.Contains(out.String(), "stale-allow") || !strings.Contains(errOut.String(), "1 finding(s)") {
		t.Errorf("a partial run must skip the stale-allow audit:\n%s%s", out.String(), errOut.String())
	}
}
