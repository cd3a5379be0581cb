package sim

import (
	"math/rand"
)

// NewRand returns a deterministic random stream that yields exactly the
// sequence of rand.New(rand.NewSource(seed)), value for value, through
// every *rand.Rand method.
//
// rand.NewSource fills its whole 607-word state (1,841 LCG steps, ~4.9 KB)
// before the first draw, yet most simulation streams draw a few dozen
// values: a node's clock stream ~20, a sender's delay stream ~90 on a
// sparse topology. A NewRand stream instead holds O(1) state and computes
// each of its first lazyDraws values directly from the seed; only a
// stream that draws more allocates the full state, once, and continues
// with math/rand's own generator step. Creation is two small allocations
// (the Rand and the source), draws before the switch allocate nothing,
// the switch allocates the 607-word state, and later draws allocate
// nothing.
//
// Like math/rand, NewRand reduces the seed modulo 2^31−1 (zero maps to
// a fixed constant), so seeds congruent modulo 2^31−1 give the same
// stream; see StreamSeed.
func NewRand(seed int64) *rand.Rand {
	s := &lazySource{}
	s.Seed(seed)
	return rand.New(s)
}

// math/rand's additive lagged Fibonacci generator: outputs x_n = x_{n−607}
// + x_{n−273} (mod 2^64), seeded from a Park–Miller LCG
// s_j = seed·48271^j mod (2^31−1) mixed with the constant rngCooked table.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// rngFeed is the feedback index math/rand starts from (its tap
	// starts at 0).
	rngFeed = rngLen - rngTap
)

// lazyDraws is how many values a stream serves from the seed before it
// materializes the full generator state. A lazy value computes two seed
// words — six multiply-mods, about 3× the cost of a materialized draw —
// and lazyDraws may not exceed rngTap: from draw rngTap on, a value
// depends on an earlier output, not on seed words alone. The switch
// computes all 607 seed words (1,821 multiply-mods) into the 4.9 KB
// state: ~7 µs, against ~15 µs for rand.NewSource. At 128, a stream
// that goes on to draw many values has paid ~2 µs of lazy overhead
// before it switches, a fraction of the switch itself, while every
// stream that stops short of 128 draws (all clock streams, most delay
// streams) never pays the switch. 128 is also below the ≥160 draws per
// sender that the pulse-round allocation guards make while warming up,
// so their streams switch before measurement starts.
const lazyDraws = 128

// lazySource is a rand.Source64 equal to math/rand's rngSource for the
// same seed. Until it has served lazyDraws values, vec is nil and draw n
// is computed as seedWord(rngFeed−1−n) + seedWord(rngLen−1−n); after that,
// vec/tap/feed are exactly rngSource's state after the same draws.
type lazySource struct {
	seed uint64 // reduced seed in [1, 2^31−2]
	n    int    // values served lazily
	tap  int
	feed int
	vec  *[rngLen]int64
}

// Seed resets the stream to seed, reducing it as math/rand does; a
// materialized state is dropped.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.n = 0
	s.vec = nil
}

// Int63 returns a non-negative pseudo-random 63-bit integer. It repeats
// Uint64's body rather than calling it so the materialized step inlines
// (every Float64 and Intn draw comes through here).
func (s *lazySource) Int63() int64 {
	if s.vec == nil {
		return int64(s.lazyUint64() & rngMask)
	}
	return int64(s.step() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *lazySource) Uint64() uint64 {
	if s.vec == nil {
		return s.lazyUint64()
	}
	return s.step()
}

// lazyUint64 serves a draw while the stream has no full state: from seed
// words for the first lazyDraws values, then by switching.
func (s *lazySource) lazyUint64() uint64 {
	if s.n < lazyDraws {
		n := s.n
		s.n++
		return s.seedWord(rngFeed-1-n) + s.seedWord(rngLen-1-n)
	}
	s.materialize()
	return s.step()
}

// step is math/rand's rngSource.Uint64 over the materialized state.
func (s *lazySource) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// materialize builds rngSource's freshly seeded state and replays the
// values already served lazily, so step continues the same sequence.
func (s *lazySource) materialize() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = int64(s.seedWord(i))
	}
	s.tap, s.feed = 0, rngFeed
	for i := 0; i < s.n; i++ {
		s.step()
	}
}

// seedWord is the freshly seeded rngSource's vec[i].
func (s *lazySource) seedWord(i int) uint64 { return lcgWord(s.seed, i) ^ rngCooked[i] }

// lcgWord is the LCG part of seed word i: s_{21+3i}<<40 ^ s_{22+3i}<<20 ^
// s_{23+3i}.
func lcgWord(seed uint64, i int) uint64 {
	p := &seedPow[i]
	return mulMod(seed, p[0])<<40 ^ mulMod(seed, p[1])<<20 ^ mulMod(seed, p[2])
}

// mulMod returns a·b mod (2^31−1) for a, b in [0, 2^31−1).
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&int32max + x>>31
	x = x&int32max + x>>31
	if x >= int32max {
		x -= int32max
	}
	return x
}

// seedPow[i][k] = 48271^(21+3i+k) mod (2^31−1): the LCG multipliers of
// seed word i, so any seed word costs three multiply-mods.
var seedPow [rngLen][3]uint64

// rngCooked is math/rand's unexported seeding table, recovered at init.
var rngCooked [rngLen]uint64

func init() {
	p := uint64(1)
	for j := 1; j <= 20; j++ {
		p = mulMod(p, 48271)
	}
	for i := range seedPow {
		for k := range seedPow[i] {
			p = mulMod(p, 48271)
			seedPow[i][k] = p
		}
	}
	rngCooked = recoverCooked()
}

// recoverCooked inverts math/rand's generator: from the first rngLen
// outputs of seed 1 it solves x_{n−607} = x_n − x_{n−273} for every seed
// word, then strips seed 1's LCG contribution. TestNewRandMatchesMathRand
// guards the result.
func recoverCooked() [rngLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	// x[k+rngLen] holds x_k for k in [−rngLen, rngLen).
	var x [2 * rngLen]uint64
	for n := 0; n < rngLen; n++ {
		x[rngLen+n] = src.Uint64()
	}
	// Descending k: x_{k+334} is either an output or a seed word
	// solved earlier in this loop.
	for k := -1; k >= -rngLen; k-- {
		x[rngLen+k] = x[rngLen+k+rngLen] - x[rngLen+k+rngLen-rngTap]
	}
	var cooked [rngLen]uint64
	for m := 1; m <= rngLen; m++ {
		// Seed word x_{−m} is the fresh state's vec[(m+333) mod 607].
		i := (m + rngFeed - 1) % rngLen
		cooked[i] = x[rngLen-m] ^ lcgWord(1, i)
	}
	return cooked
}
