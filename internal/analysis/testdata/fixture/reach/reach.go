// Package reach is the fixture for the reachability walk: init reaches
// live, live hands out a thing only as a namer, so thing.name is live only
// because it satisfies namer, and planted is reached by nothing.
package reach

type namer interface{ name() string }

type thing struct{}

// name is never called on a thing directly, only through namer.
func (thing) name() string { return "thing" }

// live is reached from init.
func live() namer { return thing{} }

var seen string

func init() {
	seen = live().name()
}

// planted is the dead declaration the walk must report.
func planted() {}
