// Golden cases for the barriercopy analyzer: thrifty.Barrier and
// thrifty.Group values must never be copied.
package barriercopy

import (
	"thriftybarrier/thrifty"
)

// wrapped embeds a Barrier by value: copying wrapped copies the barrier.
type wrapped struct {
	b thrifty.Barrier
	n int
}

func flaggedAssignments() {
	b := thrifty.New(4, thrifty.Options{})
	copied := *b // want `assignment copies thrifty\.Barrier by value`
	_ = copied

	var g thrifty.Group
	g2 := g // want `assignment copies thrifty\.Group by value`
	_ = g2

	var w wrapped
	w2 := w // want `assignment copies thrifty\.Barrier by value`
	_ = w2
}

func flaggedParams(b thrifty.Barrier) { // want `function takes thrifty\.Barrier by value`
	_ = b
}

func flaggedResult() thrifty.Group { // want `function returns thrifty\.Group by value`
	var g thrifty.Group
	return g
}

func flaggedCall() {
	b := thrifty.New(4, thrifty.Options{})
	use(*b) // want `call passes thrifty\.Barrier by value`
}

func use(any interface{}) { _ = any }

func flaggedRange() {
	barriers := make([]thrifty.Barrier, 3)
	for _, b := range barriers { // want `range copies thrifty\.Barrier by value`
		_ = b
	}
}

func suppressed() {
	b := thrifty.New(4, thrifty.Options{})
	//lint:ignore barriercopy fixture demonstrating directive suppression
	b3 := *b
	_ = b3
}

// --- clean cases: pointers and fresh construction are fine ---

func cleanPointer() *thrifty.Barrier {
	b := thrifty.New(4, thrifty.Options{})
	takePtr(b)
	var g thrifty.Group
	takeGroupPtr(&g)
	return b
}

func takePtr(b *thrifty.Barrier)    { b.Wait() }
func takeGroupPtr(g *thrifty.Group) { _ = g.Len() }

func cleanConstruction() {
	// A composite literal constructs; it does not copy a live value.
	var g thrifty.Group
	_ = &g
	opts := thrifty.Options{Cutoff: 0.1}
	_ = opts // Options holds no lock state: copying it is fine.
	ptrs := make([]*thrifty.Barrier, 2)
	for _, p := range ptrs { // pointers: no copy of the barrier itself
		_ = p
	}
}
