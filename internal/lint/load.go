// Package lint implements cataero's domain-specific static-analysis suite:
// a small, dependency-free analysis framework in the spirit of
// golang.org/x/tools/go/analysis (which is not vendored here — the module is
// intentionally stdlib-only) plus the three project analyzers described in
// README.md: hotpath, ctxloop and physconst.
//
// The loader shells out to `go list -export -deps -json`, type-checks every
// module package from source (so analyzers share one *types.Package identity
// space and can chase calls across package boundaries), and imports
// out-of-module dependencies from the compiler export data the go command
// already produced into its build cache.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one source-type-checked module package.
type Package struct {
	Path  string // import path, e.g. "cataero/internal/fvm"
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives []directive
}

// Program is a loaded, type-checked view of the packages an analyzer run
// covers: the pattern-matched targets plus every in-module dependency.
type Program struct {
	Fset    *token.FileSet
	Pkgs    []*Package // all source-checked packages, dependency order
	Targets []*Package // the subset matched by the load patterns

	byPath map[string]*Package
	decls  map[*types.Func]*FuncDecl
}

// FuncDecl ties a function object to its syntax and owning package.
type FuncDecl struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load runs `go list -export -deps -json patterns...` in dir (a directory
// inside the module) and type-checks every in-module package from source.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,Name,Export,Standard,DepOnly,GoFiles,Imports,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}

	prog := &Program{
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		decls:  make(map[*types.Func]*FuncDecl),
	}
	exports := make(map[string]string) // import path -> export data file
	var module []*listPkg              // in-module packages, already dep-first
	for _, p := range pkgs {
		if p.Error != nil && p.Module != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Module != nil && !p.Standard {
			module = append(module, p)
			continue
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	imp := &progImporter{prog: prog}
	imp.gc = importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})

	// go list -deps emits dependencies before dependents, so a single pass
	// type-checks the module in topological order.
	for _, lp := range module {
		pkg, err := prog.check(lp, imp)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[pkg.Path] = pkg
		if !lp.DepOnly {
			prog.Targets = append(prog.Targets, pkg)
		}
	}
	if len(prog.Targets) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %s", strings.Join(patterns, " "))
	}
	return prog, nil
}

func (prog *Program) check(lp *listPkg, imp types.Importer) (*Package, error) {
	pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir}
	for _, name := range lp.GoFiles {
		fn := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(prog.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.directives = append(pkg.directives, fileDirectives(prog.Fset, f)...)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, prog.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	pkg.Types = tpkg
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.decls[obj] = &FuncDecl{Pkg: pkg, Decl: fd}
				}
			}
		}
	}
	return pkg, nil
}

// progImporter resolves module packages to their source-checked types and
// everything else through compiler export data.
type progImporter struct {
	prog *Program
	gc   types.Importer
}

func (im *progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.prog.byPath[path]; ok {
		return p.Types, nil
	}
	return im.gc.Import(path)
}

// Package returns the loaded package with the given import path, or whose
// path ends in "/"+suffix, or nil.
func (prog *Program) Package(suffix string) *Package {
	if p, ok := prog.byPath[suffix]; ok {
		return p
	}
	for _, p := range prog.Pkgs {
		if strings.HasSuffix(p.Path, "/"+suffix) {
			return p
		}
	}
	return nil
}

// DeclOf returns the syntax of fn if it was loaded from source, else nil.
func (prog *Program) DeclOf(fn *types.Func) *FuncDecl { return prog.decls[fn] }

// Position resolves a token position against the shared file set.
func (prog *Program) Position(pos token.Pos) token.Position {
	return prog.Fset.Position(pos)
}

// SortDiagnostics orders diagnostics by file, line and column.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return ds[i].Message < ds[j].Message
	})
}
