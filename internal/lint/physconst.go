package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"
)

// physConstEntry is one known physical constant the physconst analyzer
// recognizes in numeric literals.
type physConstEntry struct {
	value   float64
	what    string
	suggest string
	// Ambiguous values (1.4 could be a relaxation factor, a margin, a
	// gamma) are only flagged when the same statement also contains an
	// unambiguous physical constant, or when the assigned name matches a
	// hint — so `refitMargin = 1.4` passes while `1.4*287.05*T` and
	// `Gamma: 1.4` are caught.
	ambiguous bool
	hints     []string
}

// physConstTable is keyed by the exact parsed literal value.
//
//cataero:allow physconst the analyzer's own match table
var physConstTable = map[float64]physConstEntry{
	287.05:         {value: 287.05, what: "the air specific gas constant R [J/(kg K)]", suggest: "thermo.RAir"},
	1.4:            {value: 1.4, what: "the diatomic-air ratio of specific heats gamma", suggest: "thermo.GammaAir", ambiguous: true, hints: []string{"gamma"}},
	8.314462618:    {value: 8.314462618, what: "the universal gas constant Ru [J/(mol K)]", suggest: "thermo.Ru"},
	8.314:          {value: 8.314, what: "a truncated universal gas constant Ru", suggest: "thermo.Ru"},
	1.380649e-23:   {value: 1.380649e-23, what: "the Boltzmann constant kB [J/K]", suggest: "thermo.KB"},
	6.02214076e23:  {value: 6.02214076e23, what: "the Avogadro number [1/mol]", suggest: "thermo.NA"},
	6.62607015e-34: {value: 6.62607015e-34, what: "the Planck constant [J s]", suggest: "thermo.Planck"},
	2.99792458e8:   {value: 2.99792458e8, what: "the speed of light [m/s]", suggest: "thermo.LightC"},
	5.670374419e-8: {value: 5.670374419e-8, what: "the Stefan-Boltzmann constant [W/(m^2 K^4)]", suggest: "thermo.SigmaSB"},
	5.67e-8:        {value: 5.67e-8, what: "a truncated Stefan-Boltzmann constant", suggest: "thermo.SigmaSB"},
	101325:         {value: 101325, what: "the standard atmosphere [Pa]", suggest: "thermo.AtmPa"},
	1.458e-6:       {value: 1.458e-6, what: "the Sutherland viscosity coefficient [kg/(m s K^0.5)]", suggest: "transport.Sutherland"},
	110.4:          {value: 110.4, what: "the Sutherland temperature [K]", suggest: "transport.Sutherland", ambiguous: true, hints: []string{"sutherland"}},
}

// PhysConst returns the physconst analyzer: numeric literals matching known
// physical constants outside the given property packages are magic numbers
// and must reference the exported constants instead. internal/lint itself is
// always exempt (it hosts the match table above).
func PhysConst(allowedPkgs ...string) *Analyzer {
	allowed := append([]string{"internal/lint"}, allowedPkgs...)
	return &Analyzer{
		Name: "physconst",
		Doc:  "physical-constant literals outside the property packages are magic numbers",
		Run: func(prog *Program) []Diagnostic {
			var diags []Diagnostic
			for _, pkg := range prog.Pkgs {
				if pkgMatches(pkg.Path, allowed) && len(allowedPkgs) > 0 {
					continue
				}
				for _, file := range pkg.Files {
					physConstFile(prog, pkg, file, &diags)
				}
			}
			SortDiagnostics(diags)
			return diags
		},
	}
}

// physMatch is one literal in a file that matched the table.
type physMatch struct {
	lit   *ast.BasicLit
	entry physConstEntry
	stmt  ast.Node // nearest enclosing statement or spec, for co-occurrence
	named bool     // assigned to a name matching the entry's hints
}

func physConstFile(prog *Program, pkg *Package, file *ast.File, diags *[]Diagnostic) {
	var matches []physMatch
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		lit, ok := n.(*ast.BasicLit)
		if !ok || (lit.Kind != token.FLOAT && lit.Kind != token.INT) {
			return true
		}
		tv, ok := pkg.Info.Types[lit]
		if !ok || tv.Value == nil {
			return true
		}
		v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		entry, ok := physConstTable[v]
		if !ok {
			return true
		}
		matches = append(matches, physMatch{
			lit:   lit,
			entry: entry,
			stmt:  enclosingStmt(stack),
			named: hintMatch(stack, entry.hints),
		})
		return true
	})

	// Resolve ambiguity by statement-level co-occurrence with a specific
	// constant (the 1.4*287.05*T pattern) or a hinted name.
	specific := make(map[ast.Node]bool)
	for _, m := range matches {
		if !m.entry.ambiguous {
			specific[m.stmt] = true
		}
	}
	for _, m := range matches {
		if m.entry.ambiguous && !specific[m.stmt] && !m.named {
			continue
		}
		report(prog, pkg, diags, "physconst", m.lit.Pos(),
			"magic number %s is %s; use %s", m.lit.Value, m.entry.what, m.entry.suggest)
	}
}

// enclosingStmt returns the innermost statement or declaration spec on the
// ancestor stack (the co-occurrence grouping unit).
func enclosingStmt(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case ast.Stmt, ast.Spec:
			return stack[i]
		}
	}
	return stack[0]
}

// hintMatch reports whether the literal is being bound to a name matching
// one of the hints: an assignment LHS, a composite-literal key, a constant
// or variable name, or a struct field default.
func hintMatch(stack []ast.Node, hints []string) bool {
	if len(hints) == 0 {
		return false
	}
	match := func(names ...string) bool {
		for _, nm := range names {
			lower := strings.ToLower(nm)
			for _, h := range hints {
				if h != "" && strings.Contains(lower, h) {
					return true
				}
			}
		}
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.CallExpr:
			return false // an argument is not bound to a caller-side name
		case *ast.KeyValueExpr:
			if match(fieldName(n.Key)) {
				return true
			}
		case *ast.AssignStmt:
			var names []string
			for _, l := range n.Lhs {
				names = append(names, fieldName(l))
			}
			return match(names...)
		case *ast.ValueSpec:
			var names []string
			for _, id := range n.Names {
				names = append(names, id.Name)
			}
			return match(names...)
		}
	}
	return false
}

// fieldName is the identifier an expression names: a selector's field or a
// bare identifier.
func fieldName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}
