// Package classes is the class-keyed table of the registry-analyzer
// fixture: ClassB has a solver but is missing from the classNames map, so
// the analyzer must flag the drift at the map.
package classes

// Class keys the table.
type Class int

// The tabled classes.
const (
	ClassA Class = iota
	ClassB
)

// Solver is the tabled implementation.
type Solver struct{}

var solvers = map[Class]Solver{
	ClassA: {},
	ClassB: {},
}

var classNames = map[Class]string{ // want "solver class table solvers keys .* disagree"
	ClassA: "a",
}
