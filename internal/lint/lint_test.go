package lint

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// fixtureLoader is shared across fixture cases so the stdlib source
// importer's work is paid once.
var fixtureLoader *Loader

func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	if fixtureLoader == nil {
		l, err := NewLoader("testdata/src", "")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		fixtureLoader = l
	}
	pkg, err := fixtureLoader.Load(dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	return pkg
}

var wantArgRE = regexp.MustCompile(`"([^"]*)"`)

// collectWants extracts the `// want "regex"` expectations from a fixture
// package, keyed by filename and line.
func collectWants(t *testing.T, pkg *Package) map[string]map[int][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string]map[int][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantArgRE.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					byLine := wants[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]*regexp.Regexp)
						wants[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], re)
				}
			}
		}
	}
	return wants
}

// checkFixture runs one rule over one fixture tree — one package, or
// several that import each other — and verifies the findings against the
// want comments of every package, both directions.
func checkFixture(t *testing.T, dirs []string, rule *Analyzer) {
	t.Helper()
	var pkgs []*Package
	wants := make(map[string]map[int][]*regexp.Regexp)
	for _, d := range dirs {
		pkg := loadFixture(t, d)
		pkgs = append(pkgs, pkg)
		for file, byLine := range collectWants(t, pkg) {
			wants[file] = byLine
		}
	}
	checkWants(t, analyze(pkgs, []*Analyzer{rule}), wants)
}

// checkWants verifies findings against want expectations, both directions.
func checkWants(t *testing.T, findings []Finding, wants map[string]map[int][]*regexp.Regexp) {
	t.Helper()
	for _, f := range findings {
		text := fmt.Sprintf("%s: %s", f.Rule, f.Msg)
		matched := false
		res := wants[f.Pos.Filename][f.Pos.Line]
		for i, re := range res {
			if re.MatchString(text) {
				wants[f.Pos.Filename][f.Pos.Line] = append(res[:i], res[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s:%d: %s", f.Pos.Filename, f.Pos.Line, text)
		}
	}
	for file, byLine := range wants {
		for line, res := range byLine {
			for _, re := range res {
				t.Errorf("%s:%d: expected finding matching %q, got none", file, line, re)
			}
		}
	}
}

// TestFixtures proves every rule both fires on violations and stays quiet
// on compliant code, per the golden // want comments in testdata/src.
func TestFixtures(t *testing.T) {
	// Runs beside TestModuleClean: each type-checks its own copy of the
	// stdlib from source, which is most of this package's test time. The
	// other fixture tests stay serial, so fixtureLoader has one user at a time.
	t.Parallel()
	cases := []struct {
		dir  string
		rule *Analyzer
	}{
		{"det_core", DeterminismAnalyzer},
		{"det_allow", DeterminismAnalyzer},
		{"det_other", DeterminismAnalyzer},
		{"det_import", DeterminismAnalyzer},
		{"sortiter", SortedIterAnalyzer},
		{"floatcmp", FloatCompareAnalyzer},
		{"errcheck", ErrorDisciplineAnalyzer},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) { checkFixture(t, []string{c.dir}, c.rule) })
	}
}

// TestGraphFixtures proves the rules that look past one package both fire
// on violations and stay quiet on compliant code, per the golden // want
// comments: a clock read two calls away in a helper package is reported
// where the deterministic package imports the helper.
func TestGraphFixtures(t *testing.T) {
	cases := []struct {
		name string
		dirs []string
		rule *Analyzer
	}{
		{"taintchain", []string{"taintchain/core", "taintchain/hub", "taintchain/leaf"}, DeterminismAnalyzer},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFixture(t, c.dirs, c.rule) })
	}
}

// TestModuleClean runs the full suite, stale-allow audit included, over the
// real module: the tree must stay finding-free, so CI can gate on a bare
// `repllint ./...`.
func TestModuleClean(t *testing.T) {
	t.Parallel()
	findings, err := Run("../..")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
		ok   bool
	}{
		{"//repllint:allow determinism — spans only", []string{"determinism"}, true},
		{"//repllint:allow determinism,float-compare justification", []string{"determinism", "float-compare"}, true},
		{"// repllint:allow determinism", nil, false}, // space breaks the directive on purpose
		{"//repllint:allow", nil, false},
		{"// plain comment", nil, false},
	}
	for _, c := range cases {
		rules, ok := parseAllow(c.text)
		if ok != c.ok || strings.Join(rules, "|") != strings.Join(c.want, "|") {
			t.Errorf("parseAllow(%q) = %v, %v; want %v, %v", c.text, rules, ok, c.want, c.ok)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(root, "repo") && !strings.Contains(root, "/") {
		t.Fatalf("unexpected module root %q", root)
	}
	if _, err := FindModuleRoot("/"); err == nil {
		t.Fatal("FindModuleRoot(/) should fail")
	}
}
