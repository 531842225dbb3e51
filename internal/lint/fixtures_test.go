package lint

import (
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads testdata fixture packages from the module root.
func loadFixture(t *testing.T, patterns ...string) *Program {
	t.Helper()
	prog, err := Load(moduleRoot(t), patterns...)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	return prog
}

// wantPatternRE extracts the quoted regexes from a `// want "..." "..."`
// comment, honoring escaped quotes.
var wantPatternRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantKey struct {
	file string
	line int
}

// collectWants gathers the `// want` expectations from every loaded fixture
// file, keyed by position.
func collectWants(t *testing.T, prog *Program) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					k := wantKey{pos.Filename, pos.Line}
					for _, m := range wantPatternRE.FindAllStringSubmatch(text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}
	return wants
}

// checkFixture matches diagnostics against the want expectations both ways:
// every diagnostic needs a want on its line, every want needs a diagnostic.
func checkFixture(t *testing.T, prog *Program, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, prog)
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		full := d.Analyzer + ": " + d.Message
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(full) {
				wants[k][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
}

func TestHotPathFixture(t *testing.T) {
	prog := loadFixture(t, "./internal/lint/testdata/src/hotpathfix")
	checkFixture(t, prog, HotPath().Run(prog))
}

func TestHotPathIfaceFixture(t *testing.T) {
	prog := loadFixture(t, "./internal/lint/testdata/src/hotpathifacefix")
	a := HotPath(IfaceRoot{Pkg: "src/hotpathifacefix", Iface: "Batcher", Method: "Batch"})
	checkFixture(t, prog, a.Run(prog))
}

func TestHotPathAssemblyFixture(t *testing.T) {
	prog := loadFixture(t, "./internal/lint/testdata/src/hotpathasmfix")
	a := HotPath(IfaceRoot{Pkg: "src/hotpathasmfix", Iface: "Stepper", Method: "Step"})
	checkFixture(t, prog, a.Run(prog))
}

func TestCtxLoopFixture(t *testing.T) {
	prog := loadFixture(t, "./internal/lint/testdata/src/ctxloopfix")
	checkFixture(t, prog, CtxLoop("src/ctxloopfix").Run(prog))
}

func TestPhysConstFixture(t *testing.T) {
	prog := loadFixture(t, "./internal/lint/testdata/src/physconstfix/...")
	checkFixture(t, prog, PhysConst("src/physconstfix/ok").Run(prog))
}

// TestRepositoryClean runs the full configured suite over the repository:
// the tree must stay lint-clean so CI's catlint gate holds.
func TestRepositoryClean(t *testing.T) {
	prog := loadFixture(t, "./...")
	for _, a := range All() {
		for _, d := range a.Run(prog) {
			t.Errorf("%s", d)
		}
	}
}
