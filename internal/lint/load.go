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
	"sync"
)

// A Package is one parsed and type-checked module package.
type Package struct {
	// Path is the full import path (module path + "/" + RelPath).
	Path string
	// RelPath is the module-root-relative path ("internal/sim",
	// "cmd/pcaplint"); analyzers scope themselves with it.
	RelPath string
	// Dir is the absolute directory.
	Dir string
	// Files are the package's non-test files, parsed with comments.
	Files []*ast.File
	// Types and Info hold the go/types results.
	Types *types.Package
	Info  *types.Info
	// cfgs memoizes Pass.CFG per function body. Analyzers for one
	// package run sequentially on one goroutine, so no lock.
	cfgs map[*ast.BlockStmt]*FuncCFG
}

// A Module is the loaded repository: every non-test package, parsed and
// type-checked in dependency order.
type Module struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Path is the module path declared in go.mod.
	Path string
	Fset *token.FileSet
	// Packages is in dependency order: a package appears after
	// everything it imports from the module.
	Packages []*Package
	// ownerTransfer collects //pcaplint:owner-transfer functions across
	// the whole module, so annotations work cross-package.
	ownerTransfer map[types.Object]bool
}

// IsOwnerTransfer reports whether obj is a function annotated
// //pcaplint:owner-transfer.
func (m *Module) IsOwnerTransfer(obj types.Object) bool {
	return obj != nil && m.ownerTransfer[obj]
}

// LoadModuleWorkers parses and type-checks every non-test package under
// root. Directories named testdata or vendor, and names starting with "."
// or "_", are skipped, matching the go tool. Stdlib imports are resolved
// by the source importer shipped with the toolchain, so the loader needs
// no precompiled export data and no third-party dependencies. Parsing is
// sequential (it shares one FileSet and is cheap); type-checking is
// scheduled over the package DAG on workers workers so independent
// packages check concurrently. The source importer the stdlib chain
// rests on is NOT safe for concurrent use, so every Import — and the
// module-result map it consults — is serialized behind one mutex;
// parallelism comes from the checkers' own work, which dominates once
// the stdlib is warm. workers < 2 falls back to the plain sequential
// loop. The resulting Module is identical either way: packages are
// collected in dependency order after all checks complete.
func LoadModuleWorkers(root string, workers int) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	mod := &Module{
		Root:          root,
		Path:          modPath,
		Fset:          fset,
		ownerTransfer: make(map[types.Object]bool),
	}

	byPath := make(map[string]*Package)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + rel
		}
		pkg := byPath[importPath]
		if pkg == nil {
			pkg = &Package{Path: importPath, RelPath: rel, Dir: dir}
			byPath[importPath] = pkg
		}
		pkg.Files = append(pkg.Files, file)
		return nil
	})
	if err != nil {
		return nil, err
	}

	order, err := sortPackages(byPath, modPath)
	if err != nil {
		return nil, err
	}

	imp := &lockedImporter{chain: chainImporter{
		module: make(map[string]*types.Package),
		std:    importer.ForCompiler(fset, "source", nil),
	}}
	if workers > 1 && len(order) > 1 {
		err = checkParallel(fset, order, byPath, modPath, imp, workers)
	} else {
		err = checkSequential(fset, order, imp)
	}
	if err != nil {
		return nil, err
	}
	// Single-threaded epilogue: the Module's package order and the
	// owner-transfer set are assembled identically at any worker count.
	for _, pkg := range order {
		for obj := range ownerTransferFuncs(pkg.Info, pkg.Files) {
			mod.ownerTransfer[obj] = true
		}
		mod.Packages = append(mod.Packages, pkg)
	}
	return mod, nil
}

// checkOne type-checks a single package, publishing the result to the
// importer's module map for its dependents.
func checkOne(fset *token.FileSet, pkg *Package, imp *lockedImporter) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	imp.publish(pkg.Path, tpkg)
	return nil
}

func checkSequential(fset *token.FileSet, order []*Package, imp *lockedImporter) error {
	for _, pkg := range order {
		if err := checkOne(fset, pkg, imp); err != nil {
			return err
		}
	}
	return nil
}

// checkParallel schedules type-checking over the module-internal import
// DAG: a package becomes ready when its last in-module dependency
// completes. A failed package poisons its dependents — they complete
// without checking — and the topologically first failure is returned,
// matching the error the sequential loop would have produced.
func checkParallel(fset *token.FileSet, order []*Package, byPath map[string]*Package, modPath string, imp *lockedImporter, workers int) error {
	deps := make(map[string][]string, len(order))
	dependents := make(map[string][]string, len(order))
	remaining := make(map[string]int, len(order))
	for _, pkg := range order {
		ds := moduleDeps(pkg, byPath, modPath)
		deps[pkg.Path] = ds
		remaining[pkg.Path] = len(ds)
		for _, d := range ds {
			dependents[d] = append(dependents[d], pkg.Path)
		}
	}

	var (
		mu     sync.Mutex
		failed = make(map[string]bool)  // own or inherited failure
		errs   = make(map[string]error) // own type-check errors only
		ready  = make(chan *Package, len(order))
		done   = make(chan struct{}, len(order))
	)
	for _, pkg := range order {
		if remaining[pkg.Path] == 0 {
			ready <- pkg
		}
	}
	finish := func(pkg *Package, err error) {
		mu.Lock()
		if err != nil {
			failed[pkg.Path] = true
			errs[pkg.Path] = err
		}
		for _, d := range dependents[pkg.Path] {
			remaining[d]--
			if remaining[d] == 0 {
				ready <- byPath[d]
			}
		}
		mu.Unlock()
		done <- struct{}{}
	}
	if workers > len(order) {
		workers = len(order)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pkg := range ready {
				mu.Lock()
				poisoned := false
				for _, d := range deps[pkg.Path] {
					if failed[d] {
						poisoned = true
						break
					}
				}
				if poisoned {
					failed[pkg.Path] = true
				}
				mu.Unlock()
				if poisoned {
					finish(pkg, nil)
					continue
				}
				finish(pkg, checkOne(fset, pkg, imp))
			}
		}()
	}
	for range order {
		<-done
	}
	close(ready)
	wg.Wait()
	// Deterministic error selection: the first failure in topo order is
	// what the sequential loop would have hit.
	for _, pkg := range order {
		if err := errs[pkg.Path]; err != nil {
			return err
		}
	}
	return nil
}

// moduleDeps lists pkg's module-internal imports that exist in the
// module, sorted.
func moduleDeps(pkg *Package, byPath map[string]*Package, modPath string) []string {
	set := make(map[string]bool)
	for _, file := range pkg.Files {
		for _, spec := range file.Imports {
			dep, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if (dep == modPath || strings.HasPrefix(dep, modPath+"/")) && byPath[dep] != nil {
				set[dep] = true
			}
		}
	}
	return sortedNames(set)
}

// sortPackages orders packages so every module-internal import precedes
// its importer, failing on import cycles.
func sortPackages(byPath map[string]*Package, modPath string) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(byPath))
	var order []*Package
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(stack, " -> "), path)
		}
		state[path] = visiting
		pkg := byPath[path]
		deps := make(map[string]bool)
		for _, file := range pkg.Files {
			for _, spec := range file.Imports {
				dep, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
					if byPath[dep] == nil {
						return fmt.Errorf("lint: %s imports %s, which has no Go files in the module", path, dep)
					}
					deps[dep] = true
				}
			}
		}
		for _, dep := range sortedNames(deps) {
			if err := visit(dep, append(stack, path)); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// chainImporter resolves module-internal imports from the packages the
// loader has already checked and everything else (the standard library)
// through the toolchain's source importer.
type chainImporter struct {
	module map[string]*types.Package
	std    types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := c.module[path]; ok {
		return pkg, nil
	}
	return c.std.Import(path)
}

// lockedImporter serializes every Import behind one mutex: the source
// importer underneath keeps unguarded internal caches (and parses into
// the shared FileSet), so concurrent checkers must take turns through
// it. The same mutex guards the module-result map.
type lockedImporter struct {
	mu    sync.Mutex
	chain chainImporter
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chain.Import(path)
}

// publish records a completed module package for later imports.
func (l *lockedImporter) publish(path string, pkg *types.Package) {
	l.mu.Lock()
	l.chain.module[path] = pkg
	l.mu.Unlock()
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", path)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
