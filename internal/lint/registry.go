package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Family describes one name table the registry analyzer checks. Exactly
// one of TableVar or ListFunc identifies where the names are written.
type Family struct {
	Kind string // human-readable, e.g. "flux kernel"
	Pkg  string // package holding the table (import-path suffix)

	// Name sources.
	TableVar string // names are the keys of this package-level map literal
	ListFunc string // names via a func returning a []string literal

	// Invariants.
	Enumerator   string            // exported enumerator func in Pkg that must cover every name
	CheckCall    string            // "pkgsuffix.Func" the fail-fast package must call
	CheckPkg     string            // package that must wire the fail-fast (skipped when not loaded)
	SpecPkg      string            // package holding the case-spec struct (skipped when not loaded)
	SpecType     string            // case-spec struct name
	SpecJSON     string            // required json tag on the case-spec struct
	CompareField string            // field whose ==/!= string comparisons must match the name set
	Consts       map[string]string // name -> exported constant; enables the bare-literal check

	// Class-keyed tables (the solver table): TableVar is a map literal keyed
	// by named class constants, and its keys must equal the keys of the
	// ClassMap map literal (the case-file name mapping).
	ClassKeyed bool
	ClassMap   string
}

// Registry returns the registry analyzer for the given families: every
// name in a family's table must reach the exported enumerator, the catsim
// fail-fast and the case-file surface, and bare name literals outside the
// table's package must use the exported constants.
func Registry(families ...Family) *Analyzer {
	return &Analyzer{
		Name: "registry",
		Doc:  "registered names must stay in sync across enumerators, fail-fast checks and the case-file Problem",
		Run: func(prog *Program) []Diagnostic {
			var diags []Diagnostic
			for i := range families {
				checkFamily(prog, &families[i], &diags)
			}
			SortDiagnostics(diags)
			return diags
		},
	}
}

// CataeroFamilies is the repository's registry configuration.
func CataeroFamilies() []Family {
	name := func(m map[string]string) map[string]string { return m }
	return []Family{
		{
			Kind: "flux kernel", Pkg: "internal/fvm", TableVar: "fluxTable",
			Enumerator: "FluxKernels", CheckCall: "cataero.FluxKernels", CheckPkg: "cmd/catsim",
			SpecPkg: "internal/core", SpecType: "Problem", SpecJSON: "flux",
			Consts: name(map[string]string{"hlle": "fvm.FluxHLLE", "hlle-ef": "fvm.FluxHLLEEF", "hllc": "fvm.FluxHLLC", "ausm+": "fvm.FluxAUSMPlus", "ausm+up": "fvm.FluxAUSMPlusUp"}),
		},
		{
			Kind: "time stepping", Pkg: "internal/fvm", ListFunc: "Integrators",
			Enumerator: "Integrators", CheckCall: "cataero.TimeSteppings", CheckPkg: "cmd/catsim",
			SpecPkg: "internal/core", SpecType: "Problem", SpecJSON: "time_stepping",
			Consts: name(map[string]string{"explicit": "fvm.TimeSteppingExplicit", "implicit": "fvm.TimeSteppingImplicit"}),
		},
		{
			Kind: "implicit sweep", Pkg: "internal/fvm", ListFunc: "ImplicitSweeps",
			Enumerator: "ImplicitSweeps", CheckCall: "cataero.ImplicitSweeps", CheckPkg: "cmd/catsim",
			SpecPkg: "internal/core", SpecType: "Problem", SpecJSON: "implicit_sweep",
			CompareField: "ImplicitSweep",
			Consts:       name(map[string]string{"jline": "fvm.ImplicitSweepJLine", "adi": "fvm.ImplicitSweepADI"}),
		},
		{
			Kind: "limiter", Pkg: "internal/fvm", TableVar: "limiterTable",
			Enumerator: "Limiters", CheckCall: "cataero.Limiters", CheckPkg: "cmd/catsim",
			SpecPkg: "internal/core", SpecType: "Problem", SpecJSON: "limiter",
			Consts: name(map[string]string{"minmod": "fvm.LimiterMinmod", "vanalbada": "fvm.LimiterVanAlbada"}),
		},
		{
			Kind: "solver class", Pkg: "internal/core", TableVar: "solvers",
			ClassKeyed: true, ClassMap: "classNames",
		},
	}
}

func checkFamily(prog *Program, f *Family, diags *[]Diagnostic) {
	pkg := prog.Package(f.Pkg)
	if pkg == nil {
		return // registering package outside this load; nothing to check
	}
	if f.ClassKeyed {
		checkClassFamily(prog, f, pkg, diags)
		return
	}

	names, anchor := collectNames(prog, f, pkg, diags)
	if len(names) == 0 {
		report(prog, pkg, diags, "registry", pkg.Files[0].Package,
			"%s registry in %s has no statically visible names", f.Kind, f.Pkg)
		return
	}

	// Enumerator exists and (for map tables) actually reads the table, so
	// no name can be left unenumerable.
	enum := pkg.Types.Scope().Lookup(f.Enumerator)
	if enum == nil {
		report(prog, pkg, diags, "registry", anchor,
			"%s registry has no exported enumerator %s()", f.Kind, f.Enumerator)
	} else if f.TableVar != "" {
		if !funcReferences(prog, pkg, f.Enumerator, f.TableVar, 2) {
			report(prog, pkg, diags, "registry", prog.DeclPos(pkg, f.Enumerator),
				"enumerator %s() does not read %s; registered %ss would be invisible", f.Enumerator, f.TableVar, f.Kind)
		}
	}

	// Hand-written comparison chains against the same names must not drift
	// from the enumerator set (e.g. a validate function rejecting a newly
	// registered name).
	if f.CompareField != "" {
		checkComparisons(prog, f, pkg, names, diags)
	}

	// The fail-fast package must consult the exported enumerator.
	checkFailFast(prog, f, pkg, anchor, diags)

	// The case-spec surface must expose the family.
	checkSpec(prog, f, pkg, anchor, diags)

	// Bare name literals outside the registering package.
	if len(f.Consts) > 0 {
		checkBareLiterals(prog, f, pkg, names, diags)
	}
}

// collectNames extracts the statically visible registered names and an
// anchor position for family-level diagnostics.
func collectNames(prog *Program, f *Family, pkg *Package, diags *[]Diagnostic) (map[string]bool, token.Pos) {
	names := make(map[string]bool)
	anchor := pkg.Files[0].Package
	switch {
	case f.TableVar != "":
		lit, pos := packageMapLiteral(pkg, f.TableVar)
		if lit == nil {
			report(prog, pkg, diags, "registry", anchor, "%s registry table %s not found", f.Kind, f.TableVar)
			return names, anchor
		}
		anchor = pos
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if s, ok := constString(pkg, kv.Key); ok {
					names[s] = true
				}
			}
		}
	case f.ListFunc != "":
		lit, pos := funcSliceLiteral(pkg, f.ListFunc)
		if lit == nil {
			report(prog, pkg, diags, "registry", anchor,
				"%s enumerator %s() must return a []string literal the analyzer can read", f.Kind, f.ListFunc)
			return names, anchor
		}
		anchor = pos
		for _, el := range lit.Elts {
			if s, ok := constString(pkg, el); ok {
				names[s] = true
			}
		}
	}
	return names, anchor
}

func constString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// packageMapLiteral finds a package-level `var name = map[...]...{...}`.
func packageMapLiteral(pkg *Package, name string) (*ast.CompositeLit, token.Pos) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, sp := range gd.Specs {
				vs := sp.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if id.Name == name && i < len(vs.Values) {
						if lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit); ok {
							return lit, id.Pos()
						}
					}
				}
			}
		}
	}
	return nil, token.NoPos
}

// funcSliceLiteral finds `func name() []string { return []string{...} }`.
func funcSliceLiteral(pkg *Package, name string) (*ast.CompositeLit, token.Pos) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv != nil || fd.Body == nil {
				continue
			}
			for _, st := range fd.Body.List {
				if ret, ok := st.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
					if lit, ok := ast.Unparen(ret.Results[0]).(*ast.CompositeLit); ok {
						return lit, fd.Name.Pos()
					}
				}
			}
		}
	}
	return nil, token.NoPos
}

// DeclPos returns the position of a package-scope declaration by name.
func (prog *Program) DeclPos(pkg *Package, name string) token.Pos {
	if obj := pkg.Types.Scope().Lookup(name); obj != nil {
		return obj.Pos()
	}
	return pkg.Files[0].Package
}

// funcReferences reports whether the named function's body mentions ident
// (chasing same-package calls up to depth hops).
func funcReferences(prog *Program, pkg *Package, fn, ident string, depth int) bool {
	obj, ok := pkg.Types.Scope().Lookup(fn).(*types.Func)
	if !ok {
		return false
	}
	return funcObjReferences(prog, obj, ident, depth)
}

func funcObjReferences(prog *Program, fn *types.Func, ident string, depth int) bool {
	decl := prog.DeclOf(fn)
	if decl == nil || decl.Decl.Body == nil {
		return false
	}
	found := false
	ast.Inspect(decl.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if id.Name == ident {
				found = true
				return false
			}
			if depth > 0 {
				if callee, ok := decl.Pkg.Info.Uses[id].(*types.Func); ok && callee.Pkg() == fn.Pkg() {
					if funcObjReferences(prog, callee, ident, depth-1) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// checkComparisons verifies hand-written ==/!= chains over the family's
// field agree exactly with the registered name set.
func checkComparisons(prog *Program, f *Family, pkg *Package, names map[string]bool, diags *[]Diagnostic) {
	compared := make(map[string]bool)
	var first token.Pos
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return true
			}
			for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
				s, ok := constString(pkg, pair[1])
				if !ok || s == "" {
					continue // empty means "use the default", not a name
				}
				if fieldName(pair[0]) == f.CompareField {
					compared[s] = true
					if !first.IsValid() {
						first = b.Pos()
					}
				}
			}
			return true
		})
	}
	if len(compared) == 0 {
		return
	}
	if !sameStringSet(compared, names) {
		report(prog, pkg, diags, "registry", first,
			"%s comparison chain over .%s covers %v but the registry enumerates %v; update both together",
			f.Kind, f.CompareField, sortedKeys(compared), sortedKeys(names))
	}
}

func fieldName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// checkFailFast requires the CheckPkg to call the exported enumerator.
func checkFailFast(prog *Program, f *Family, pkg *Package, anchor token.Pos, diags *[]Diagnostic) {
	if f.CheckPkg == "" || f.CheckCall == "" {
		return
	}
	cp := prog.Package(f.CheckPkg)
	if cp == nil {
		return // fail-fast package not in this load
	}
	dot := strings.LastIndex(f.CheckCall, ".")
	wantPkg, wantFn := f.CheckCall[:dot], f.CheckCall[dot+1:]
	found := false
	for _, file := range cp.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
				if obj, ok := cp.Info.Uses[sel.Sel].(*types.Func); ok &&
					obj.Name() == wantFn && obj.Pkg() != nil &&
					(obj.Pkg().Path() == wantPkg || strings.HasSuffix(obj.Pkg().Path(), "/"+wantPkg)) {
					found = true
				}
			}
			return true
		})
	}
	if !found {
		report(prog, pkg, diags, "registry", anchor,
			"%s registry has no fail-fast in %s: nothing there calls %s()", f.Kind, f.CheckPkg, f.CheckCall)
	}
}

// checkSpec requires the case-spec struct to expose the family via a json
// tag and actually read the tagged field.
func checkSpec(prog *Program, f *Family, pkg *Package, anchor token.Pos, diags *[]Diagnostic) {
	if f.SpecPkg == "" {
		return
	}
	sp := prog.Package(f.SpecPkg)
	if sp == nil {
		return
	}
	obj := sp.Types.Scope().Lookup(f.SpecType)
	if obj == nil {
		report(prog, pkg, diags, "registry", anchor, "case-spec type %s.%s not found", f.SpecPkg, f.SpecType)
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	var field *types.Var
	for i := 0; i < st.NumFields(); i++ {
		tag := reflect.StructTag(st.Tag(i))
		jsonName, _, _ := strings.Cut(tag.Get("json"), ",")
		if jsonName == f.SpecJSON {
			field = st.Field(i)
			break
		}
	}
	if field == nil {
		report(prog, pkg, diags, "registry", anchor,
			"%s registry is not reachable from %s.%s: no field tagged json:%q", f.Kind, f.SpecPkg, f.SpecType, f.SpecJSON)
		return
	}
	// The field must be read somewhere beyond its declaration, otherwise the
	// tag parses but never reaches a Problem.
	used := false
	for _, file := range sp.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !used {
				if s, ok := sp.Info.Selections[sel]; ok && s.Obj() == field {
					used = true
				}
			}
			return !used
		})
	}
	if !used {
		report(prog, pkg, diags, "registry", field.Pos(),
			"case-spec field %s (json:%q) is never read; the %s choice cannot reach a Problem", field.Name(), f.SpecJSON, f.Kind)
	}
}

// checkBareLiterals flags registry names spelled as string literals outside
// the registering package.
func checkBareLiterals(prog *Program, f *Family, regPkg *Package, names map[string]bool, diags *[]Diagnostic) {
	for _, pkg := range prog.Pkgs {
		if pkg == regPkg || hasPathSuffix(pkg.Path, "internal/lint") {
			continue // the analyzer's own configuration names every registry
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ImportSpec, *ast.StructType:
					return false // import paths and struct tags are not names
				case *ast.BasicLit:
					if x.Kind != token.STRING {
						return true
					}
					s, err := strconv.Unquote(x.Value)
					if err != nil || !names[s] {
						return true
					}
					suggest := f.Consts[s]
					if suggest == "" {
						suggest = "the exported constant"
					}
					report(prog, pkg, diags, "registry", x.Pos(),
						"bare %s name %q outside %s; use %s", f.Kind, s, f.Pkg, suggest)
				}
				return true
			})
		}
	}
}

// checkClassFamily verifies class-keyed tables: the keys of the TableVar
// map literal must equal the keys of the ClassMap literal. A missing table
// is a finding, so renaming it cannot switch the check off.
func checkClassFamily(prog *Program, f *Family, pkg *Package, diags *[]Diagnostic) {
	table, anchor := packageMapLiteral(pkg, f.TableVar)
	if table == nil {
		report(prog, pkg, diags, "registry", pkg.Files[0].Package, "%s table %s not found", f.Kind, f.TableVar)
		return
	}
	names, pos := packageMapLiteral(pkg, f.ClassMap)
	if names == nil {
		report(prog, pkg, diags, "registry", anchor,
			"%s table %s has no name map %s", f.Kind, f.TableVar, f.ClassMap)
		return
	}
	tabled, mapped := identKeys(table), identKeys(names)
	if !sameStringSet(tabled, mapped) {
		report(prog, pkg, diags, "registry", pos,
			"%s table %s keys %v and %s keys %v disagree; a class missing from the map is unreachable from case files",
			f.Kind, f.TableVar, sortedKeys(tabled), f.ClassMap, sortedKeys(mapped))
	}
}

// identKeys returns the identifier keys of a map literal.
func identKeys(lit *ast.CompositeLit) map[string]bool {
	keys := make(map[string]bool)
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := ast.Unparen(kv.Key).(*ast.Ident); ok {
				keys[id.Name] = true
			}
		}
	}
	return keys
}

func sameStringSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
