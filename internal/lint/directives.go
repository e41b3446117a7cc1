package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives holds the parsed //repllint:allow suppressions for one
// package. Two scopes exist:
//
//   - file scope: the directive appears in the file header (before the
//     package clause) and exempts the whole file from the named rules;
//   - line scope: the directive sits on the same line as the finding, or on
//     the line immediately above it.
//
// The directive text is "//repllint:allow rule[,rule] [justification]".
//
// Every parsed (file, line, rule) entry is also recorded so the driver can
// audit suppressions after a full run: an allow that matched no finding is
// stale — either the offending code is gone, the rule changed, or the rule
// name is misspelled — and is reported as a finding itself.
type Directives struct {
	// fileAllow maps filename -> rules exempted for the whole file.
	fileAllow map[string]map[string]bool
	// lineAllow maps filename -> line -> rules exempted on that line.
	lineAllow map[string]map[int]map[string]bool

	// declared lists every allow entry in source order; used marks the
	// entries that suppressed at least one finding.
	declared []AllowSite
	used     map[AllowSite]bool
}

// AllowSite is one declared (file, line, rule) allow entry. Line is 0 for
// file-scope directives (the position is still recorded in DeclLine).
type AllowSite struct {
	File string
	Line int // matching line; 0 = whole file
	Rule string
	// DeclLine is the line the directive comment itself sits on (differs
	// from Line for file-scope entries and line-above placement).
	DeclLine int
}

const allowPrefix = "//repllint:allow"

// ParseDirectives scans every comment of the files for allow directives.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		fileAllow: make(map[string]map[string]bool),
		lineAllow: make(map[string]map[int]map[string]bool),
		used:      make(map[AllowSite]bool),
	}
	for _, f := range files {
		pkgLine := fset.Position(f.Package).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if pos.Line < pkgLine {
					set := d.fileAllow[pos.Filename]
					if set == nil {
						set = make(map[string]bool)
						d.fileAllow[pos.Filename] = set
					}
					for _, r := range rules {
						set[r] = true
						d.declared = append(d.declared, AllowSite{File: pos.Filename, Line: 0, Rule: r, DeclLine: pos.Line})
					}
					continue
				}
				lines := d.lineAllow[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					d.lineAllow[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				for _, r := range rules {
					set[r] = true
					d.declared = append(d.declared, AllowSite{File: pos.Filename, Line: pos.Line, Rule: r, DeclLine: pos.Line})
				}
			}
		}
	}
	return d
}

// parseAllow extracts the rule names from one comment, or ok=false when the
// comment is not an allow directive. Rules are the first whitespace-free
// token after the prefix, comma-separated; everything after is the
// free-form justification.
func parseAllow(text string) (rules []string, ok bool) {
	rest, found := strings.CutPrefix(text, allowPrefix)
	if !found {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	for _, r := range strings.Split(fields[0], ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	return rules, len(rules) > 0
}

// Allows reports whether a finding of the given rule at pos is suppressed,
// and marks the matching directive as used for the stale audit.
func (d *Directives) Allows(rule string, pos token.Position) bool {
	if d == nil {
		return false
	}
	if d.fileAllow[pos.Filename][rule] {
		d.markUsed(pos.Filename, 0, rule)
		return true
	}
	lines := d.lineAllow[pos.Filename]
	if lines[pos.Line][rule] {
		d.markUsed(pos.Filename, pos.Line, rule)
		return true
	}
	if lines[pos.Line-1][rule] {
		d.markUsed(pos.Filename, pos.Line-1, rule)
		return true
	}
	return false
}

// markUsed flags the declared entry matching (file, line, rule).
func (d *Directives) markUsed(file string, line int, rule string) {
	for _, site := range d.declared {
		if site.File == file && site.Line == line && site.Rule == rule {
			d.used[site] = true
			return
		}
	}
}

// Stale returns the declared allow entries that never suppressed a finding,
// in source order. Call only after every relevant analyzer ran; an allow
// for a rule that was not part of the run would report as a false stale.
func (d *Directives) Stale() []AllowSite {
	if d == nil {
		return nil
	}
	var out []AllowSite
	for _, site := range d.declared {
		if !d.used[site] {
			out = append(out, site)
		}
	}
	return out
}
