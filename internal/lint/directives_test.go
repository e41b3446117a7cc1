package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseDirectiveFixture parses one synthetic source file and returns its
// directives plus the fileset (positions are 1-based lines of src).
func parseDirectiveFixture(t *testing.T, src string) (*Directives, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return ParseDirectives(fset, []*ast.File{f}), fset
}

func at(line int) token.Position {
	return token.Position{Filename: "fix.go", Line: line}
}

// TestDirectivesMultiRule covers comma-separated rule lists: one directive
// suppresses every named rule on its line, and nothing else.
func TestDirectivesMultiRule(t *testing.T) {
	d, _ := parseDirectiveFixture(t, `package fix

func f() {
	_ = 1 //repllint:allow determinism,float-compare — fixture: both rules, one comment
}
`)
	if !d.Allows("determinism", at(4)) {
		t.Error("first rule of the list should be allowed")
	}
	if !d.Allows("float-compare", at(4)) {
		t.Error("second rule of the list should be allowed")
	}
	if d.Allows("sorted-iteration", at(4)) {
		t.Error("unlisted rule must not be allowed")
	}
	if d.Allows("determinism", at(6)) {
		t.Error("line-scope allow must not leak to other lines")
	}
}

// TestDirectivesFileScope covers the header placement: a directive before
// the package clause exempts the whole file, at every line.
func TestDirectivesFileScope(t *testing.T) {
	d, _ := parseDirectiveFixture(t, `//repllint:allow determinism — fixture: whole-file exemption
package fix

func f() {}
`)
	for _, line := range []int{1, 4, 100} {
		if !d.Allows("determinism", at(line)) {
			t.Errorf("file-scope allow should cover line %d", line)
		}
	}
	if d.Allows("float-compare", at(4)) {
		t.Error("file scope covers only the named rule")
	}
	if d.Allows("determinism", token.Position{Filename: "other.go", Line: 4}) {
		t.Error("file scope must not leak to other files")
	}
}

// TestDirectivesPlacement covers line-above vs trailing placement: both
// match the finding line; two lines above does not.
func TestDirectivesPlacement(t *testing.T) {
	d, _ := parseDirectiveFixture(t, `package fix

func f() {
	//repllint:allow determinism — fixture: line above
	_ = 1
	_ = 2 //repllint:allow float-compare — fixture: trailing
	//repllint:allow sorted-iteration — fixture: two lines above the target

	_ = 3
}
`)
	if !d.Allows("determinism", at(5)) {
		t.Error("line-above placement should match the next line")
	}
	if !d.Allows("determinism", at(4)) {
		t.Error("a directive also matches its own line")
	}
	if !d.Allows("float-compare", at(6)) {
		t.Error("trailing placement should match its line")
	}
	if d.Allows("sorted-iteration", at(9)) {
		t.Error("a directive two lines above must not match")
	}
}

// TestDirectivesMalformed covers the rejected shapes: a space after //, a
// bare prefix without rules, and plain comments. None may suppress, and
// none may register a declared site for the stale audit.
func TestDirectivesMalformed(t *testing.T) {
	d, _ := parseDirectiveFixture(t, `package fix

func f() {
	_ = 1 // repllint:allow determinism — space breaks the directive
	_ = 2 //repllint:allow
	_ = 3 // a plain comment mentioning determinism
}
`)
	for line := 1; line <= 7; line++ {
		if d.Allows("determinism", at(line)) {
			t.Errorf("malformed directive must not suppress (line %d)", line)
		}
	}
	if got := len(d.declared); got != 0 {
		t.Errorf("malformed directives registered %d declared sites, want 0", got)
	}
}

// TestDirectivesStale covers the audit bookkeeping: declared sites appear
// in source order, Allows marks exactly the matching entry used, and
// Stale returns the rest — with DeclLine pointing at the comment even for
// file-scope and line-above placement.
func TestDirectivesStale(t *testing.T) {
	d, _ := parseDirectiveFixture(t, `//repllint:allow error-discipline — fixture: file scope, never used
package fix

func f() {
	_ = 1 //repllint:allow determinism — fixture: used below
	//repllint:allow float-compare — fixture: line above, used
	_ = 2
	_ = 3 //repllint:allow sorted-iteration — fixture: stays stale
}
`)
	if got := len(d.declared); got != 4 {
		t.Fatalf("declared %d sites, want 4", got)
	}
	if d.declared[0] != (AllowSite{File: "fix.go", Line: 0, Rule: "error-discipline", DeclLine: 1}) {
		t.Errorf("file-scope site = %+v, want Line 0 / DeclLine 1", d.declared[0])
	}

	if !d.Allows("determinism", at(5)) || !d.Allows("float-compare", at(7)) {
		t.Fatal("expected suppressions did not match")
	}
	stale := d.Stale()
	if len(stale) != 2 {
		t.Fatalf("Stale() = %+v, want the error-discipline and sorted-iteration sites", stale)
	}
	if stale[0].Rule != "error-discipline" || stale[1].Rule != "sorted-iteration" {
		t.Errorf("stale order = %s, %s; want error-discipline then sorted-iteration", stale[0].Rule, stale[1].Rule)
	}
	if stale[1].DeclLine != 8 {
		t.Errorf("trailing stale DeclLine = %d, want 8", stale[1].DeclLine)
	}

	// Using the remaining entries drains the audit.
	if !d.Allows("error-discipline", at(3)) || !d.Allows("sorted-iteration", at(8)) {
		t.Fatal("expected suppressions did not match")
	}
	if left := d.Stale(); len(left) != 0 {
		t.Errorf("all entries used, Stale() = %+v, want none", left)
	}

	// nil receiver: total no-ops.
	var nilD *Directives
	if nilD.Allows("determinism", at(1)) || nilD.Stale() != nil {
		t.Error("nil Directives must not allow or report stale")
	}
}
