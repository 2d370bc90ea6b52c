// Package reach is the fixture for the reachability walk: init reaches
// live, live hands out a thing only as a namer, so thing.name is live only
// because it satisfies namer; box[int] is handed out the same way, so the
// generic box.name is live too. decoy is live and has a name method, but
// not namer's, so its name is dead like planted, which nothing reaches.
package reach

type namer interface{ name() string }

type thing struct{}

// name is never called on a thing directly, only through namer.
func (thing) name() string { return "thing" }

// box is generic; box[int] satisfies namer.
type box[T any] struct{ v T }

func (box[T]) name() string { return "box" }

// decoy's name takes an argument, so decoy does not implement namer.
type decoy struct{}

func (decoy) name(int) string { return "decoy" }

// live is reached from init.
func live() namer { return thing{} }

var seen string

func init() {
	var n namer = box[int]{}
	seen = live().name() + n.name()
	_ = decoy{}
}

// planted is the dead declaration the walk must report.
func planted() {}
