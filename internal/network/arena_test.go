package network

import (
	"math/rand"
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
	// Raw payloads force the arena path. Each Send takes its own slot (a
	// broadcast's recipients would share one), so one all-pairs round of
	// sends holds n^2 slots at its peak.
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			nt.Send(from, to, Raw("burst"))
		}
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

// TestBroadcastSharesOnePayloadSlot asserts that one payload broadcast
// stores its envelope once: between the broadcast and the drain it holds
// exactly one arena slot whatever the number of recipients, every
// recipient receives the same Payload, and the drain frees the slot —
// also when a recipient has no handler (the DroppedOffline path) or the
// policy drops some recipients. A broadcast the policy drops entirely
// takes no slot at all.
func TestBroadcastSharesOnePayloadSlot(t *testing.T) {
	const n = 8
	dropOdd := PerLink{Fn: func(_, to NodeID, _ sim.Time, _ *rand.Rand) float64 {
		if to%2 == 1 {
			return -1
		}
		return 0.005
	}}
	for _, c := range []struct {
		name      string
		policy    Policy
		offline   NodeID // recipient left without a handler, or -1
		delivered int
		slots     int
	}{
		{"offline recipient", Uniform{Min: 0.002, Max: 0.01}, 3, n - 1, 1},
		{"some dropped", dropOdd, -1, n / 2, 1},
		{"all dropped", Drop{}, -1, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := sim.New(1)
			nt := New(e, n, c.policy, nil)
			payload := &struct{ sigs []int }{sigs: []int{1, 2, 3}}
			delivered := 0
			for i := 0; i < n; i++ {
				if i == c.offline {
					continue
				}
				nt.Register(i, func(_ NodeID, msg Message) {
					if msg.Payload != any(payload) {
						t.Errorf("recipient %d got payload %v, want the broadcast's", i, msg.Payload)
					}
					delivered++
				})
			}
			nt.Broadcast(0, Message{Kind: KindRaw, Round: 7, Payload: payload})
			if nt.inUse != c.slots || len(nt.arena) != c.slots {
				t.Fatalf("broadcast holds %d slots (arena %d), want %d", nt.inUse, len(nt.arena), c.slots)
			}
			e.RunAll(0)
			if delivered != c.delivered {
				t.Fatalf("delivered %d, want %d", delivered, c.delivered)
			}
			if c.offline >= 0 && nt.Stats().DroppedOffline != 1 {
				t.Fatalf("DroppedOffline = %d, want 1", nt.Stats().DroppedOffline)
			}
			if nt.inUse != 0 || len(nt.freeSlots) != c.slots {
				t.Fatalf("after drain: %d slots in use, %d free, want 0 and %d", nt.inUse, len(nt.freeSlots), c.slots)
			}
			for i, s := range nt.arena {
				if s != (arenaSlot{}) {
					t.Fatalf("slot %d not released after drain: %+v", i, s)
				}
			}
		})
	}
}
