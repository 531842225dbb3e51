// Package regbad is the ill-formed name table of the registry-analyzer
// fixture: it holds a widget but exports no enumerator, so nothing outside
// the package can discover the name.
package regbad

// Widget is the table's element type.
type Widget interface{ Name() string }

type gammaWidget struct{}

func (gammaWidget) Name() string { return "gamma" }

var widgets = map[string]Widget{ // want "has no exported enumerator Widgets"
	"gamma": gammaWidget{},
}
