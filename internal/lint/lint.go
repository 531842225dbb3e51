package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one whole-program check. Unlike go/analysis passes, Run sees
// the entire loaded program at once: the domain rules here (hot-path call
// closures, cancellation polls) are inherently cross-package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Diagnostic
}

// Directive comments understood by the suite:
//
//	//cataero:hotpath
//	    marks a function as a hot-path root for the hotpath analyzer
//	//cataero:allow <analyzer> [reason]
//	    suppresses <analyzer> diagnostics on the same or next source line
type directive struct {
	line int    // line the directive comment starts on
	verb string // "hotpath", "allow", ...
	args string // remainder after the verb
}

const directivePrefix = "//cataero:"

func fileDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			verb, args, _ := strings.Cut(rest, " ")
			out = append(out, directive{
				line: fset.Position(c.Pos()).Line,
				verb: verb,
				args: strings.TrimSpace(args),
			})
		}
	}
	return out
}

// Suppressed reports whether an "//cataero:allow <analyzer>" directive covers
// the given position (same line or the line immediately above).
func (pkg *Package) Suppressed(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	line := fset.Position(pos).Line
	for _, d := range pkg.directives {
		if d.verb != "allow" {
			continue
		}
		name, _, _ := strings.Cut(d.args, " ")
		if name != analyzer {
			continue
		}
		if d.line == line || d.line == line-1 {
			return true
		}
	}
	return false
}

// hasDirective reports whether fd's doc comment carries the given
// //cataero:<verb> directive.
func hasDirective(fd *ast.FuncDecl, verb string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, directivePrefix) {
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			v, _, _ := strings.Cut(rest, " ")
			if v == verb {
				return true
			}
		}
	}
	return false
}

// report appends a diagnostic unless a suppression directive covers it.
func report(prog *Program, pkg *Package, out *[]Diagnostic, analyzer string, pos token.Pos, format string, args ...any) {
	if pkg.Suppressed(prog.Fset, analyzer, pos) {
		return
	}
	*out = append(*out, Diagnostic{
		Pos:      prog.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the analyzer suite configured for this repository.
func All() []*Analyzer {
	return []*Analyzer{
		// The annotated (*fvm.Solver).Step calls both integrators directly,
		// so the batched LHS-assembly closure (assembleLineJ/assembleLineI,
		// jacPlanes, the block-tridiagonal factor/solve) stays covered even
		// if an annotation on an interior function is dropped.
		HotPath(IfaceRoot{Pkg: "internal/fvm", Iface: "BatchFluxKernel", Method: "BatchFlux"}),
		CtxLoop("internal/fvm", "internal/vsl", "internal/pns", "internal/ns", "internal/euler", "internal/blayer"),
		PhysConst("internal/thermo", "internal/gas", "internal/transport", "internal/chem"),
	}
}

// ByName returns the named analyzers from All, or an error naming the
// unknown one.
func ByName(names []string) ([]*Analyzer, error) {
	all := All()
	if len(names) == 0 {
		return all, nil
	}
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	return out, nil
}
