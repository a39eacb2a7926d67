// Package noc models the interconnection network of the simulated CC-NUMA
// machine: a hypercube with wormhole routing, pipelined routers, and
// endpoint (un)marshaling, per Table 1 of the paper (64 nodes, 16 ns
// pin-to-pin router latency, 16 ns endpoint marshaling, 16-byte-wide links
// at 250 MHz).
package noc

import (
	"fmt"
	"math/bits"

	"thriftybarrier/internal/sim"
)

// Config describes the network.
type Config struct {
	// Nodes is the machine size; must be a power of two for a hypercube.
	Nodes int
	// PinToPin is the per-hop router latency.
	PinToPin sim.Cycles
	// Endpoint is the (un)marshaling latency paid once at each endpoint.
	Endpoint sim.Cycles
	// FlitBytes is the link width; payload beyond the head flit adds
	// FlitCycle per extra flit (wormhole pipelining).
	FlitBytes int
	// FlitCycle is the time to move one flit across a link at the link
	// clock (250 MHz => 4 ns per flit).
	FlitCycle sim.Cycles
}

// DefaultConfig reproduces Table 1: 64-node hypercube, 16 ns pin-to-pin,
// 16 ns endpoint marshaling, 16-byte links at 250 MHz.
func DefaultConfig() Config {
	return Config{
		Nodes:     64,
		PinToPin:  16 * sim.Nanosecond,
		Endpoint:  16 * sim.Nanosecond,
		FlitBytes: 16,
		FlitCycle: 4 * sim.Nanosecond,
	}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes&(c.Nodes-1) != 0 {
		return fmt.Errorf("noc: node count %d is not a positive power of two", c.Nodes)
	}
	if c.PinToPin < 0 || c.Endpoint < 0 || c.FlitCycle < 0 {
		return fmt.Errorf("noc: negative latency in %+v", c)
	}
	if c.FlitBytes <= 0 {
		return fmt.Errorf("noc: non-positive flit width %d", c.FlitBytes)
	}
	return nil
}

// Network computes message latencies over the hypercube. The paper's
// network is modeled contention-free (wormhole pipelined latency only), so
// a Network is immutable after New and the parallel engine's shards may
// share one without synchronization.
type Network struct {
	cfg Config
	dim int
}

// New builds a network, panicking on invalid static configuration.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Network{cfg: cfg, dim: bits.TrailingZeros(uint(cfg.Nodes))}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Dimension returns the hypercube dimension (log2 nodes).
func (n *Network) Dimension() int { return n.dim }

// Hops returns the hypercube hop count between two nodes: the Hamming
// distance of their addresses (e-cube routing traverses one dimension per
// differing bit).
func (n *Network) Hops(src, dst int) int {
	n.checkNode(src)
	n.checkNode(dst)
	return bits.OnesCount(uint(src ^ dst))
}

// Latency returns the end-to-end latency of a message of payloadBytes from
// src to dst: marshal + hops*pinToPin + serialization of extra flits +
// unmarshal. A node messaging itself pays no network latency.
func (n *Network) Latency(src, dst, payloadBytes int) sim.Cycles {
	if src == dst {
		n.checkNode(src)
		return 0
	}
	hops := n.Hops(src, dst)
	flits := 1
	if payloadBytes > 0 {
		flits = (payloadBytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	}
	lat := 2*n.cfg.Endpoint + sim.Cycles(hops)*n.cfg.PinToPin
	// Wormhole: body flits pipeline behind the head, adding one flit time
	// each at the bottleneck link.
	lat += sim.Cycles(flits-1) * n.cfg.FlitCycle
	return lat
}

// MaxLatency returns the worst-case (antipodal) latency for a message of
// payloadBytes — used for conservative bounds in tests and documentation.
func (n *Network) MaxLatency(payloadBytes int) sim.Cycles {
	return n.Latency(0, n.cfg.Nodes-1, payloadBytes)
}

// MinLatency returns the latency of a one-hop message of payloadBytes —
// the smallest delay any inter-node interaction can have, and therefore the
// lookahead floor of the parallel engine's conservative windows.
func (n *Network) MinLatency(payloadBytes int) sim.Cycles {
	flits := 1
	if payloadBytes > 0 {
		flits = (payloadBytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	}
	return 2*n.cfg.Endpoint + n.cfg.PinToPin + sim.Cycles(flits-1)*n.cfg.FlitCycle
}

func (n *Network) checkNode(id int) {
	if id < 0 || id >= n.cfg.Nodes {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", id, n.cfg.Nodes))
	}
}
