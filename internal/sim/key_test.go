package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestKeyCompareAgreesWithLess checks that the sign of Compare is the
// order Less defines, on random keys drawn from small value sets (so
// equal-At and equal-Cause ties, and fully equal keys, are common),
// extreme lanes and sequence numbers, and the keyBefore/keyAfter window
// sentinels.
func TestKeyCompareAgreesWithLess(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	times := []Time{0, 0.5, 1, 1.5, math.Inf(-1), math.Inf(1)}
	lanes := []int32{LaneGlobal, 0, 1, 7, math.MinInt32, math.MaxInt32}
	seqs := []uint32{0, 1, 2, math.MaxUint32}
	keys := make([]Key, 0, 400)
	for _, at := range times[:4] {
		keys = append(keys, keyBefore(at), keyAfter(at))
	}
	for len(keys) < cap(keys) {
		keys = append(keys, Key{
			At:    times[r.Intn(4)],
			Cause: times[r.Intn(len(times))],
			Lane:  lanes[r.Intn(len(lanes))],
			Seq:   seqs[r.Intn(len(seqs))],
		})
	}
	for _, a := range keys {
		for _, b := range keys {
			want := 0
			switch {
			case a.Less(b):
				want = -1
			case b.Less(a):
				want = 1
			}
			if got := a.Compare(b); got != want {
				t.Fatalf("%+v.Compare(%+v) = %d, Less says %d", a, b, got, want)
			}
		}
	}
}
