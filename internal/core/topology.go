package core

import (
	"fmt"

	"thriftybarrier/internal/mem/dram"
)

// Topology selects the barrier's check-in fabric.
type Topology int

const (
	// TopologyFlat is the paper's single lock-protected counter (Figure 2).
	// For backward compatibility, Options.TreeArity >= 2 with TopologyFlat
	// still selects the fixed-arity combining tree.
	TopologyFlat Topology = iota
	// TopologyTree is the fixed-arity combining tree (requires TreeArity).
	TopologyTree
	// TopologyNoCTree is the NoC-matched multi-level combining tree
	// (Bertuletti et al.): level 0 combines within each NoC region at a
	// counter homed on the region's leader node, and each upper level
	// pairs surviving region leaders along one hypercube dimension of the
	// region index, so every combining message crosses exactly one more
	// network dimension than the level below.
	TopologyNoCTree
)

func (t Topology) String() string {
	switch t {
	case TopologyFlat:
		return "flat"
	case TopologyTree:
		return "tree"
	case TopologyNoCTree:
		return "noctree"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// ParseTopology maps the CLI spelling to a Topology.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "flat":
		return TopologyFlat, nil
	case "tree":
		return TopologyTree, nil
	case "noctree":
		return TopologyNoCTree, nil
	default:
		return 0, fmt.Errorf("core: unknown topology %q (flat, tree, noctree)", s)
	}
}

// effective resolves the back-compat rule: TreeArity >= 2 under
// TopologyFlat means the fixed-arity tree.
func (o Options) effectiveTopology() Topology {
	if o.Topology == TopologyFlat && o.TreeArity >= 2 {
		return TopologyTree
	}
	return o.Topology
}

// pGroup is one combining counter: size children check in, the last one
// climbs (or releases, at the root). The counter line lives in the home
// node's memory.
type pGroup struct {
	size int
	home int
	line uint64
}

// pLevel is one tier of the fabric. radix is the fan-in used to map a
// member index at this level to its group (member m -> group m/radix).
type pLevel struct {
	radix  int
	groups []pGroup
}

// pShape is the explicit multi-level check-in fabric of the machine: every (level, group) has a fixed counter line and home node,
// so check-in traffic is plain home-node messaging. Thread t starts in
// level-0 group t/levels[0].radix; the last arrival of level l group g
// climbs to level l+1 group g/levels[l+1].radix.
type pShape struct {
	levels []pLevel
}

// lineSlots on the count page (the flag line occupies slot 0 of the flag
// page, leaving the rest of that page for overflow counters).
const countPageLines = flagOffset / 64

// buildShape lays out the fabric for one static barrier. Counter lines
// fill the barrier's count page and then the tail of its flag page; a
// machine too large for that address budget panics.
func buildShape(topo Topology, arity, nodes, regionNodes int, countAddr, flagAddr uint64, place *dram.Placement) pShape {
	radixAt := func(level, members int) int {
		switch topo {
		case TopologyTree:
			return arity
		case TopologyNoCTree:
			if level == 0 {
				return regionNodes
			}
			return 2
		default: // flat: one group swallows everyone
			return members
		}
	}
	lineAt := func(k int) uint64 {
		if k < countPageLines {
			return countAddr + uint64(k)*64
		}
		k -= countPageLines - 1 // slot 0 of the flag page is the flag itself
		if uint64(k)*64 >= barrierStride-flagOffset {
			panic(fmt.Sprintf("core: %v fabric for %d nodes does not fit the barrier's line budget", topo, nodes))
		}
		return flagAddr + uint64(k)*64
	}
	homeAt := func(level, g int) int {
		if topo != TopologyNoCTree {
			return place.Home(countAddr)
		}
		if level == 0 {
			return g * regionNodes
		}
		return (g << uint(level)) * regionNodes
	}

	var sh pShape
	line := 0
	for members, level := nodes, 0; members > 1; level++ {
		radix := radixAt(level, members)
		groups := (members + radix - 1) / radix
		lv := pLevel{radix: radix, groups: make([]pGroup, groups)}
		for g := 0; g < groups; g++ {
			size := radix
			if rest := members - g*radix; rest < size {
				size = rest
			}
			lv.groups[g] = pGroup{size: size, home: homeAt(level, g), line: lineAt(line)}
			line++
		}
		sh.levels = append(sh.levels, lv)
		members = groups
	}
	if len(sh.levels) == 0 {
		// Degenerate single-thread machine: one root group.
		sh.levels = []pLevel{{radix: 1, groups: []pGroup{{size: 1, home: homeAt(0, 0), line: lineAt(0)}}}}
	}
	return sh
}
