// Package reg is the well-formed name table of the registry-analyzer
// fixture: constant names as the keys of a map literal and an exported
// enumerator that reads it. TestRegistryFixture checks it stays silent.
package reg

// Widget is the table's element type.
type Widget interface{ Name() string }

// Exported name constants; consumers must use these instead of bare strings.
const (
	WidgetAlpha = "alpha"
	WidgetBeta  = "beta"
)

type alphaWidget struct{}

func (alphaWidget) Name() string { return WidgetAlpha }

type betaWidget struct{}

func (betaWidget) Name() string { return WidgetBeta }

var widgets = map[string]Widget{
	WidgetAlpha: alphaWidget{},
	WidgetBeta:  betaWidget{},
}

// Widgets enumerates the table's names.
func Widgets() []string {
	out := make([]string, 0, len(widgets))
	for k := range widgets {
		out = append(out, k)
	}
	return out
}
