package dram

import (
	"testing"
	"testing/quick"

	"thriftybarrier/internal/sim"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Banks: 0, RowBytes: 2048, RowMiss: 60},
		{Banks: 3, RowBytes: 2048, RowMiss: 60},
		{Banks: 4, RowBytes: 0, RowMiss: 60},
		{Banks: 4, RowBytes: 2048, RowHit: 70 * sim.Nanosecond, RowMiss: 60 * sim.Nanosecond},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRowMissThenHit(t *testing.T) {
	m := New(DefaultConfig())
	if l := m.Access(0x1000); l != 60*sim.Nanosecond {
		t.Fatalf("cold access latency = %v, want 60ns", l)
	}
	if l := m.Access(0x1008); l != 30*sim.Nanosecond {
		t.Fatalf("same-row access latency = %v, want 30ns", l)
	}
}

func TestRowConflictEvictsOpenRow(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	rowStride := uint64(cfg.RowBytes * cfg.Banks) // same bank, next row
	m.Access(0)
	if l := m.Access(rowStride); l != cfg.RowMiss {
		t.Fatalf("row conflict latency = %v, want miss", l)
	}
	if l := m.Access(0); l != cfg.RowMiss {
		t.Fatalf("return to closed row = %v, want miss", l)
	}
}

func TestBankInterleaving(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	// Consecutive rows land in different banks; opening one must not close
	// the other.
	m.Access(0)
	m.Access(uint64(cfg.RowBytes)) // bank 1
	if l := m.Access(8); l != cfg.RowHit {
		t.Fatalf("bank 0 row was closed by bank 1 access: %v", l)
	}
}

func TestPlacementRoundRobin(t *testing.T) {
	p := NewPlacement(64, 4096)
	for page := 0; page < 256; page++ {
		addr := uint64(page * 4096)
		if home := p.Home(addr); home != page%64 {
			t.Fatalf("Home(page %d) = %d, want %d", page, home, page%64)
		}
	}
}

func TestPlacementPrivateLocal(t *testing.T) {
	p := NewPlacement(64, 4096)
	for node := 0; node < 64; node++ {
		addr := p.PrivateAddr(node, 0xDEAD000)
		if home := p.Home(addr); home != node {
			t.Fatalf("private addr of node %d homed at %d", node, home)
		}
	}
}

func TestPrivateAddrPreservesOffsetProperty(t *testing.T) {
	p := NewPlacement(64, 4096)
	f := func(node uint8, off uint32) bool {
		n := int(node % 64)
		a1 := p.PrivateAddr(n, uint64(off))
		a2 := p.PrivateAddr(n, uint64(off)+64)
		// Distinct offsets map to distinct addresses with the same home.
		return a1 != a2 && p.Home(a1) == n && p.Home(a2) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two node count did not panic")
		}
	}()
	NewPlacement(48, 4096)
}
