package network

import (
	"testing"

	"optsync/internal/sim"
)

// TestArenaReleasesBurstMemory asserts the delivery-arena cap: after a
// burst far larger than arenaTrimCap drains and the arena goes idle on a
// small steady workload, the burst's slots are released instead of
// pinned for the rest of the run (long campaign batches must not retain
// one worst-case round's batch memory).
func TestArenaReleasesBurstMemory(t *testing.T) {
	e := sim.New(1)
	const n = 80
	nt := New(e, n, Uniform{Min: 0.002, Max: 0.01}, nil)
	for i := 0; i < n; i++ {
		nt.Register(i, func(NodeID, Message) {})
	}
	// Raw payloads force the arena path, one slot per recipient, so one
	// all-pairs round holds n^2 slots at its peak.
	for from := 0; from < n; from++ {
		nt.Broadcast(from, Raw("burst"))
	}
	peak := nt.inUse
	if peak <= arenaTrimCap {
		t.Fatalf("burst used only %d slots; fixture too small to test the cap", peak)
	}
	e.RunAll(0)
	if nt.inUse != 0 {
		t.Fatalf("arena not idle after drain: %d slots in use", nt.inUse)
	}
	if len(nt.arena) <= arenaTrimCap {
		t.Fatalf("arena shrank to %d during the burst's own drain; high-water fixture broken", len(nt.arena))
	}

	// A small steady workload goes idle far below the high-water mark:
	// the next idle point must release the arena.
	nt.Send(0, 1, Raw("steady"))
	e.RunAll(0)
	if got := len(nt.arena); got > arenaTrimCap {
		t.Fatalf("arena retains %d slots after the burst drained (cap %d, peak %d)",
			got, arenaTrimCap, peak)
	}

	// And the network still works after the release.
	delivered := 0
	nt.Register(2, func(NodeID, Message) { delivered++ })
	nt.Broadcast(0, Raw("after"))
	e.RunAll(0)
	if delivered != 1 {
		t.Fatalf("post-release broadcast delivered %d to node 2, want 1", delivered)
	}
}
