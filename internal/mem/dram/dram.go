// Package dram models the per-node interleaved main memory of the
// simulated machine (Table 1: interleaved, 60 ns row miss) together with
// the page-placement policy: shared pages are distributed round-robin
// across nodes, private pages are allocated on the owning node (§4.1).
package dram

import (
	"fmt"

	"thriftybarrier/internal/sim"
)

// Config describes one node's memory.
type Config struct {
	// Banks is the interleave factor within a node.
	Banks int
	// RowBytes is the size of one DRAM row (page) per bank.
	RowBytes int
	// RowHit is the access latency when the row buffer already holds the
	// requested row.
	RowHit sim.Cycles
	// RowMiss is the access latency on a row-buffer miss (Table 1: 60 ns).
	RowMiss sim.Cycles
}

// DefaultConfig reproduces Table 1 with a conventional 4-bank interleave
// and 2 kB rows; the paper specifies only the 60 ns row-miss figure, so the
// row-hit latency is set at half of it, the usual open-page ratio.
func DefaultConfig() Config {
	return Config{
		Banks:    4,
		RowBytes: 2048,
		RowHit:   30 * sim.Nanosecond,
		RowMiss:  60 * sim.Nanosecond,
	}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: bank count %d not a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size %d not a positive power of two", c.RowBytes)
	}
	if c.RowHit < 0 || c.RowMiss < c.RowHit {
		return fmt.Errorf("dram: inconsistent latencies hit=%v miss=%v", c.RowHit, c.RowMiss)
	}
	return nil
}

// Memory is one node's DRAM: a set of banks with open-row tracking.
type Memory struct {
	cfg     Config
	openRow []uint64 // per bank; ^0 = closed
}

// New builds a memory, panicking on invalid static configuration.
func New(cfg Config) *Memory { return &NewSlab(1, cfg)[0] }

// NewSlab builds n memories whose open-row tables share one array, so a
// machine's memories cost two allocations whatever their count. It panics
// on invalid static configuration, like New.
func NewSlab(n int, cfg Config) []Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rows := make([]uint64, n*cfg.Banks)
	for i := range rows {
		rows[i] = ^uint64(0)
	}
	mems := make([]Memory, n)
	for i := range mems {
		mems[i] = Memory{cfg: cfg, openRow: rows[i*cfg.Banks : (i+1)*cfg.Banks : (i+1)*cfg.Banks]}
	}
	return mems
}

// Access performs one access and returns its latency, updating the open-row
// state of the addressed bank.
func (m *Memory) Access(addr uint64) sim.Cycles {
	row := addr / uint64(m.cfg.RowBytes)
	bank := int(row) & (m.cfg.Banks - 1)
	if m.openRow[bank] == row {
		return m.cfg.RowHit
	}
	m.openRow[bank] = row
	return m.cfg.RowMiss
}

// Placement maps addresses to home nodes: shared pages round-robin, private
// pages local to their owner. The address space is split by a high bit so
// workloads can generate both kinds without coordination.
type Placement struct {
	nodes     int
	pageBytes int
}

// PrivateBit is set in addresses belonging to a thread's private pages. The
// next bits encode the owning node.
const PrivateBit = uint64(1) << 62

// NewPlacement builds the placement policy for a machine of the given size
// and page size.
func NewPlacement(nodes, pageBytes int) *Placement {
	if nodes <= 0 || nodes&(nodes-1) != 0 {
		panic(fmt.Sprintf("dram: node count %d not a positive power of two", nodes))
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("dram: page size %d not a positive power of two", pageBytes))
	}
	return &Placement{nodes: nodes, pageBytes: pageBytes}
}

// PrivateAddr tags addr as belonging to node's private pages.
func (p *Placement) PrivateAddr(node int, addr uint64) uint64 {
	return PrivateBit | uint64(node)<<48 | (addr & ((1 << 48) - 1))
}

// Home returns the node whose memory holds addr: the encoded owner for
// private addresses, round-robin by page number for shared ones.
func (p *Placement) Home(addr uint64) int {
	if addr&PrivateBit != 0 {
		return int(addr>>48) & (p.nodes - 1)
	}
	page := addr / uint64(p.pageBytes)
	return int(page % uint64(p.nodes))
}

// Nodes reports the machine size.
func (p *Placement) Nodes() int { return p.nodes }
