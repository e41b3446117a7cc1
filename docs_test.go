package repro

import (
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// testFuncRE matches a test, benchmark or fuzz target's declaration.
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// citedTestRE matches such a name cited in prose.
	citedTestRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)

	// flagDefRE matches a flag definition in a command's source:
	// fs.Bool("name", …) and its siblings.
	flagDefRE = regexp.MustCompile(`\.(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)\("([^"]+)"`)
	// codeSpanRE matches an inline code span; fenceRE a fenced code block.
	codeSpanRE = regexp.MustCompile("`([^`\n]+)`")
	fenceRE    = regexp.MustCompile("(?s)```[a-z]*\n(.*?)```")
	// citedStudyRE matches an -exp argument.
	citedStudyRE = regexp.MustCompile(`-exp[ =]([a-z][a-z0-9]*)`)

	// reproClaimRE matches a reproducibility claim; testSpanRE a code span
	// naming a test.
	reproClaimRE = regexp.MustCompile(`(?i)bit-reproducible|byte-identical|composes\s+with`)
	testSpanRE   = regexp.MustCompile("`[^`\n]*\\bTest[A-Z0-9_][^`\n]*`")
)

// docs returns README, DESIGN, EXPERIMENTS and docs/*.md by name.
func docs(t *testing.T) map[string]string {
	t.Helper()
	names, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, name := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, names...) {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(src)
	}
	return out
}

// TestDocsCiteLiveTests fails when README, DESIGN, EXPERIMENTS or docs/*.md
// cites a Test…, Benchmark… or Fuzz… name that no _test.go in the repo —
// benchmark/ included — declares: deleting a test must take its citations
// with it.
func TestDocsCiteLiveTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for doc, src := range docs(t) {
		for _, name := range citedTestRE.FindAllString(src, -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
}

// TestDocsReproClaimsCiteTests fails when a paragraph of the same documents
// says "bit-reproducible", "byte-identical" or "composes with" without
// naming, in a code span, the Test… that fails if the claim is false.
// TestDocsCiteLiveTests then holds the name to a declared test.
func TestDocsReproClaimsCiteTests(t *testing.T) {
	for doc, src := range docs(t) {
		for _, para := range strings.Split(src, "\n\n") {
			if claim := reproClaimRE.FindString(para); claim != "" && !testSpanRE.MatchString(para) {
				t.Errorf("%s: a paragraph says %q and cites no `Test…`:\n%s", doc, claim, para)
			}
		}
	}
}

// docsLineBudget caps each top-level document's length in lines, as wc -l
// counts them. A change that grows a document past its budget fails here
// instead of waiting for a re-anchor; a change that shrinks one lowers its
// budget to the new count.
var docsLineBudget = map[string]int{"README.md": 508, "DESIGN.md": 1214, "EXPERIMENTS.md": 604}

// TestDocsLineBudget holds README, DESIGN and EXPERIMENTS to docsLineBudget.
func TestDocsLineBudget(t *testing.T) {
	src := docs(t)
	for doc, budget := range docsLineBudget {
		if n := strings.Count(src[doc], "\n"); n > budget {
			t.Errorf("%s is %d lines, over its budget of %d: say it in fewer, or once", doc, n, budget)
		}
	}
}

// TestDocsCiteLiveFlagsAndStudies fails when the same documents cite a flag
// that the named command does not define — in a `replX … -flag` code span
// or a command line of a fenced block — or an -exp name that is not an
// entry of Studies: removing a flag or a study must take its citations with
// it.
func TestDocsCiteLiveFlagsAndStudies(t *testing.T) {
	flags := commandFlags(t)
	studies := map[string]bool{"all": true} // replexp's own selector
	for _, s := range Studies {
		studies[s.Name] = true
	}
	for doc, src := range docs(t) {
		var cites []string
		for _, m := range codeSpanRE.FindAllStringSubmatch(src, -1) {
			cites = append(cites, m[1])
		}
		for _, m := range fenceRE.FindAllStringSubmatch(src, -1) {
			cites = append(cites, strings.Split(m[1], "\n")...)
		}
		for _, cite := range cites {
			cmd := ""
			for _, tok := range strings.Fields(cite) {
				tok = strings.Trim(tok, "[](),")
				switch {
				case flags[filepath.Base(tok)] != nil:
					cmd = filepath.Base(tok)
				case tok == "|" || tok == "||" || tok == "&&" || tok == ";" || tok == "&" ||
					strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>"):
					cmd = "" // the next command, or a redirect target
				case cmd != "" && len(tok) > 1 && tok[0] == '-' && tok[1] != '-':
					if name, _, _ := strings.Cut(tok[1:], "="); !flags[cmd][name] {
						t.Errorf("%s cites `%s -%s`, which cmd/%s does not define", doc, cmd, name, cmd)
					}
				}
			}
		}
		for _, m := range citedStudyRE.FindAllStringSubmatch(src, -1) {
			if !studies[m[1]] {
				t.Errorf("%s cites -exp %s, which is not in experiments.Studies", doc, m[1])
			}
		}
	}
}

// commandFlags maps each cmd/replX to the flags it defines: the fs.Bool-style
// definitions in its source, the flags ExperimentFlags registers when it
// calls that, and the flag package's own -h and -help.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob("cmd/repl*")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	for _, dir := range dirs {
		names := map[string]bool{"h": true, "help": true}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDefRE.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = true
			}
			if strings.Contains(string(src), "ExperimentFlags(") {
				fs := flag.NewFlagSet(dir, flag.ContinueOnError)
				ExperimentFlags(fs)
				fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
			}
		}
		out[filepath.Base(dir)] = names
	}
	return out
}
