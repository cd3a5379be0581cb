package sim

import (
	"math"
	"math/rand"
	"testing"
)

// netDelaySalt is the network package's per-sender delay-stream salt.
const netDelaySalt = 0x6e65742d646c79

// identitySeeds are the seeds TestNewRandMatchesMathRand pins: math/rand's
// reduction edge cases (0 and every multiple of 2^31−1 map to the same
// fixed seed; negatives wrap) and every stream seed of a 200-node run.
func identitySeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, math.MinInt64, math.MaxInt64}
	for id := 0; id < 200; id++ {
		seeds = append(seeds, StreamSeed(1, id, 0), StreamSeed(1, id, netDelaySalt))
	}
	return seeds
}

// randDraws exercises one *rand.Rand method per entry; each draw is
// reduced injectively to a uint64.
var randDraws = []struct {
	name string
	draw func(r *rand.Rand) uint64
}{
	{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
	{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	{"Intn", func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) }},
	{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
	{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }},
	{"Perm", func(r *rand.Rand) uint64 { return permCode(r.Perm(permLen)) }},
	{"Shuffle", func(r *rand.Rand) uint64 {
		p := make([]int, permLen)
		for i := range p {
			p[i] = i
		}
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return permCode(p)
	}},
}

const permLen = 7

// permCode encodes a permutation of [0, permLen) as a base-permLen number.
func permCode(p []int) uint64 {
	var c uint64
	for _, v := range p {
		c = c*permLen + uint64(v)
	}
	return c
}

// TestNewRandMatchesMathRand pins NewRand to math/rand draw for draw,
// across the lazy prefix, the switch to the full state, and beyond; a
// wrong recovered rngCooked entry or index mapping fails here.
func TestNewRandMatchesMathRand(t *testing.T) {
	const draws = 2000
	for _, d := range randDraws {
		for _, seed := range identitySeeds() {
			want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
			for i := 0; i < draws; i++ {
				if w, g := d.draw(want), d.draw(got); w != g {
					t.Fatalf("%s seed %d draw %d: NewRand %#x, math/rand %#x", d.name, seed, i, g, w)
				}
			}
		}
	}
}

// TestNewRandReseed re-seeds mid-stream, once while still lazy and once
// after the switch, and checks the sequence still matches math/rand.
func TestNewRandReseed(t *testing.T) {
	for _, at := range []int{lazyDraws / 2, 1000} {
		want, got := rand.New(rand.NewSource(5)), NewRand(5)
		for i := 0; i < 2000; i++ {
			if i == at {
				want.Seed(int64(i))
				got.Seed(int64(i))
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("re-seed at %d, draw %d: NewRand %x, math/rand %x", at, i, g, w)
			}
		}
	}
}

// TestNewRandAllocs pins the memory contract: creation is at most two
// allocations, lazy draws none, the switch to the full state exactly one,
// and every later draw none.
func TestNewRandAllocs(t *testing.T) {
	var sink *rand.Rand
	if a := testing.AllocsPerRun(100, func() { sink = NewRand(7) }); a > 2 {
		t.Errorf("NewRand allocates %v, want ≤ 2", a)
	}
	_ = sink

	s := &lazySource{}
	s.Seed(7)
	r := rand.New(s)
	// AllocsPerRun makes one extra warm-up call: lazyDraws draws in all.
	if a := testing.AllocsPerRun(lazyDraws-1, func() { r.Uint64() }); a != 0 {
		t.Errorf("lazy draws allocate %v, want 0", a)
	}
	if s.vec != nil {
		t.Fatalf("stream materialized before %d draws", lazyDraws)
	}

	const runs = 50
	at := make([]*rand.Rand, runs+1)
	for i := range at {
		at[i] = NewRand(int64(i))
		for j := 0; j < lazyDraws; j++ {
			at[i].Uint64()
		}
	}
	next := 0
	if a := testing.AllocsPerRun(runs, func() { at[next].Uint64(); next++ }); a != 1 {
		t.Errorf("the switch to the full state allocates %v, want 1", a)
	}

	r.Uint64()
	if s.vec == nil {
		t.Fatal("stream still lazy after the switch draw")
	}
	if a := testing.AllocsPerRun(1000, func() { r.Uint64() }); a != 0 {
		t.Errorf("draws after the switch allocate %v, want 0", a)
	}
}

var benchSink float64

// BenchmarkNewRand creates a stream and draws 90 values from it: the
// life of a sender's delay stream in the ring-4096 end-to-end workload.
func BenchmarkNewRand(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func(int64) *rand.Rand
	}{
		{"lazy", NewRand},
		{"math-rand", func(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := c.mk(int64(i))
				for j := 0; j < 90; j++ {
					benchSink += r.Float64()
				}
			}
		})
	}
}

// BenchmarkRandDraw is the steady-state Float64 draw, after a NewRand
// stream has switched to its full state.
func BenchmarkRandDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		r    *rand.Rand
	}{
		{"lazy", NewRand(1)},
		{"math-rand", rand.New(rand.NewSource(1))},
	} {
		b.Run(c.name, func(b *testing.B) {
			for j := 0; j < lazyDraws; j++ {
				c.r.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += c.r.Float64()
			}
		})
	}
}
