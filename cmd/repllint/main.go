// Command repllint runs the repo's custom static-analysis suite
// (internal/lint) over every package in the module and exits nonzero on
// any finding. It is stdlib-only by design — no golang.org/x/tools — and
// is wired into scripts/ci.sh between vet and the tests.
//
// Usage:
//
//	repllint [./...]
//
// The package pattern is accepted for familiarity but the tool always
// runs every rule over the whole module containing the working directory:
// the deterministic package set is closed under the module's imports, and
// partial runs would only hide findings. It defines no flags, so a flag
// is a usage error (exit 2).
//
// Findings print as "file:line: rule: message" with paths relative to the
// working directory. Suppress an individual finding with a trailing
// "//repllint:allow <rule> — justification" comment (same line or the line
// above), or a whole file by placing the directive before the package
// clause. An allow that suppresses nothing is itself a finding
// (stale-allow).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repllint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "repllint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "repllint:", err)
		return 2
	}
	findings, err := lint.Run(root)
	if err != nil {
		fmt.Fprintln(stderr, "repllint:", err)
		return 2
	}

	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d: %s: %s\n", relTo(cwd, f.Pos.Filename), f.Pos.Line, f.Rule, f.Msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "repllint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relTo relativizes a path under cwd; paths elsewhere stay as they are.
func relTo(cwd, path string) string {
	if rel, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
