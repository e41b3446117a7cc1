package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	Path       string // import path ("repro/internal/core")
	Name       string // package name ("core")
	Dir        string // absolute directory
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Directives *Directives

	deps map[string]*Package // the module packages it imports, by import path
}

// Loader resolves and type-checks packages. Module-internal import paths
// are mapped onto directories under the module root and checked from
// source; everything else (the standard library) is read from the gc
// compiler's export data, which the go command keeps in its build cache —
// far cheaper than re-checking the stdlib from source on every run. No
// other tooling is involved, so the loader works identically for the real
// module and for the testdata fixture trees.
type Loader struct {
	Fset    *token.FileSet
	Root    string // absolute module root directory
	ModPath string // module path from go.mod; "" for fixture trees

	std   types.Importer
	cache map[string]*Package
	stack map[string]bool // import-cycle detection
}

// NewLoader returns a loader for the tree rooted at root. modPath is the
// module path that prefixes internal import paths; pass "" for fixture
// trees whose packages import each other by bare directory name.
func NewLoader(root, modPath string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Root:    abs,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "gc", nil),
		cache:   make(map[string]*Package),
		stack:   make(map[string]bool),
	}, nil
}

// dirFor maps an import path onto a directory inside the tree, or "" when
// the path is not ours (stdlib).
func (l *Loader) dirFor(path string) string {
	switch {
	case l.ModPath != "" && path == l.ModPath:
		return l.Root
	case l.ModPath != "" && strings.HasPrefix(path, l.ModPath+"/"):
		return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
	case l.ModPath == "":
		d := filepath.Join(l.Root, filepath.FromSlash(path))
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d
		}
	}
	return ""
}

// Import implements types.Importer so a types.Config can resolve both
// module-internal and stdlib dependencies through this loader.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir := l.dirFor(path); dir != "" {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at the given import path
// (memoized). Test files are skipped: the rules scope themselves to
// non-test code, and test-only imports would drag in packages the checker
// does not need.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.stack[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.stack[path] = true
	defer delete(l.stack, path)

	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %q is not inside %s", path, l.Root)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	for _, fn := range names {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErrs[0])
	}

	pkg := &Package{
		Path:       path,
		Name:       files[0].Name.Name,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Directives: ParseDirectives(l.Fset, files),
		deps:       make(map[string]*Package),
	}
	// Type-checking loaded every module import into the cache.
	for _, f := range files {
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			if dep := l.cache[ip]; dep != nil {
				pkg.deps[ip] = dep
			}
		}
	}
	l.cache[path] = pkg
	return pkg, nil
}

// LoadModule discovers every package in the module rooted at dir (walking
// the tree, skipping testdata and hidden directories), loads each, and
// returns them sorted by import path.
func LoadModule(dir string) ([]*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l, err := NewLoader(root, modPath)
	if err != nil {
		return nil, err
	}

	var paths []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	paths = dedupe(paths)

	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// modulePath reads the module path from go.mod at root.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// FindModuleRoot walks up from dir until it finds a go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

func dedupe(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || s[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}
