// Package optsync's root benchmark suite: one benchmark per experiment
// table/figure (T1-T7, F1-F6 in EXPERIMENTS.md), each driving the same
// public API as the CLI, plus batch-throughput benchmarks and
// microbenchmarks of the substrates (event engine, signatures, broadcast
// primitive).
//
// Run everything:
//
//	go test -bench=. -benchmem .
package optsync

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/race"
	"optsync/internal/sig"
	"optsync/internal/sim"
)

func benchParams(n int, v bounds.Variant) bounds.Params {
	return bounds.Params{
		N: n, F: v.MaxFaults(n), Variant: v,
		Rho:  clock.Rho(1e-4),
		DMin: 0.002, DMax: 0.01,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
}

// mustRun executes one spec through the public runner.
func mustRun(b *testing.B, spec Spec) Result {
	b.Helper()
	res, err := Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// scenarioTables regenerates one experiment of the reproduction suite.
func scenarioTables(b *testing.B, id string) []*Table {
	b.Helper()
	s, ok := FindScenario(id)
	if !ok {
		b.Fatalf("scenario %s missing", id)
	}
	tables, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	return tables
}

// runSpec executes one harness run per iteration and reports the key
// reproduction metrics alongside the timing.
func runSpec(b *testing.B, spec Spec) {
	b.Helper()
	var last Result
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		last = mustRun(b, spec)
	}
	b.ReportMetric(last.MaxSkew*1e3, "skew_ms")
	b.ReportMetric(last.SkewBound*1e3, "bound_ms")
	b.ReportMetric(float64(last.CompleteRounds), "rounds")
}

// BenchmarkT1AuthAgreement regenerates a T1 cell: authenticated algorithm
// at optimal resilience with silent faults.
func BenchmarkT1AuthAgreement(b *testing.B) {
	p := benchParams(7, bounds.Auth)
	runSpec(b, Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent, Horizon: 20,
	})
}

// BenchmarkT2PrimitiveAgreement regenerates a T2 cell.
func BenchmarkT2PrimitiveAgreement(b *testing.B) {
	p := benchParams(7, bounds.Primitive)
	runSpec(b, Spec{
		Algo: AlgoPrim, Params: p,
		FaultyCount: p.F, Attack: AttackSilent, Horizon: 20,
	})
}

// BenchmarkT3Accuracy regenerates the headline accuracy comparison (one
// long CNV-under-attack run; the full table is `syncsim -exp T3`).
func BenchmarkT3Accuracy(b *testing.B) {
	p := benchParams(7, bounds.Primitive)
	var last Result
	for i := 0; i < b.N; i++ {
		last = mustRun(b, Spec{
			Algo: AlgoCNV, Params: p,
			FaultyCount: p.F, Attack: AttackBias, Bias: 3 * p.Dmax(),
			Horizon: 120, Seed: int64(i + 1),
		})
	}
	b.ReportMetric(last.EnvHi, "rate")
	b.ReportMetric(last.EnvBoundHi, "rate_bound")
}

// BenchmarkT4AuthResilience regenerates the beyond-resilience rush attack.
func BenchmarkT4AuthResilience(b *testing.B) {
	p := benchParams(5, bounds.Auth)
	var last Result
	for i := 0; i < b.N; i++ {
		last = mustRun(b, Spec{
			Algo: AlgoAuth, Params: p,
			FaultyCount: p.F + 1, Attack: AttackRush,
			RushInterval: p.Period / 5, Horizon: 30, Seed: int64(i + 1),
		})
	}
	b.ReportMetric(last.EnvHi, "rate")
	b.ReportMetric(last.MinPeriod*1e3, "min_period_ms")
}

// BenchmarkT5PrimResilience regenerates the primitive-variant boundary.
func BenchmarkT5PrimResilience(b *testing.B) {
	p := benchParams(7, bounds.Primitive)
	var last Result
	for i := 0; i < b.N; i++ {
		last = mustRun(b, Spec{
			Algo: AlgoPrim, Params: p,
			FaultyCount: p.F + 1, Attack: AttackRush,
			RushInterval: p.Period / 5, Horizon: 30, Seed: int64(i + 1),
		})
	}
	b.ReportMetric(last.EnvHi, "rate")
}

// BenchmarkT6Primitive runs the general broadcast primitive experiment.
func BenchmarkT6Primitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := scenarioTables(b, "T6")
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkT7Messages measures message complexity at n=13.
func BenchmarkT7Messages(b *testing.B) {
	p := benchParams(13, bounds.Auth)
	var last Result
	for i := 0; i < b.N; i++ {
		last = mustRun(b, Spec{
			Algo: AlgoAuth, Params: p,
			FaultyCount: p.F, Attack: AttackSilent,
			Horizon: 20, Seed: int64(i + 1),
		})
	}
	b.ReportMetric(last.MsgsPerRound, "msgs_per_round")
}

// BenchmarkF1Trace regenerates the sawtooth trace.
func BenchmarkF1Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scenarioTables(b, "F1")
	}
}

// BenchmarkF2SkewVsF runs the f-sweep cell at maximum faults.
func BenchmarkF2SkewVsF(b *testing.B) {
	p := benchParams(13, bounds.Auth)
	runSpec(b, Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent, Horizon: 20,
	})
}

// BenchmarkF3SkewVsDelay runs the selective-signing Theta(d) cell.
func BenchmarkF3SkewVsDelay(b *testing.B) {
	p := benchParams(7, bounds.Auth)
	p.DMax = 0.05
	p.DMin = 0.048
	p = bounds.Params{
		N: p.N, F: p.F, Variant: p.Variant, Rho: p.Rho,
		DMin: p.DMin, DMax: p.DMax, Period: p.Period, InitialSkew: 0.002,
	}.WithDefaults()
	runSpec(b, Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSelective, Horizon: 20,
	})
}

// BenchmarkF4Reintegration runs the late-joiner experiment.
func BenchmarkF4Reintegration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scenarioTables(b, "F4")
	}
}

// BenchmarkF5Envelope runs the long accuracy-envelope fit.
func BenchmarkF5Envelope(b *testing.B) {
	p := benchParams(7, bounds.Auth)
	var last Result
	for i := 0; i < b.N; i++ {
		last = mustRun(b, Spec{
			Algo: AlgoAuth, Params: p,
			FaultyCount: p.F, Attack: AttackSilent,
			Horizon: 200, Seed: int64(i + 1),
		})
	}
	b.ReportMetric(last.EnvHi, "rate_hi")
	b.ReportMetric(last.EnvLo, "rate_lo")
}

// BenchmarkF6SkewVsPeriod runs the P-sweep cell at P=10s.
func BenchmarkF6SkewVsPeriod(b *testing.B) {
	p := benchParams(7, bounds.Auth)
	p.Period = 10
	p.Rho = clock.Rho(1e-3)
	runSpec(b, Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent, Horizon: 200,
	})
}

// --- Substrate microbenchmarks ---

// BenchmarkEngineEvents measures raw discrete-event throughput.
func BenchmarkEngineEvents(b *testing.B) {
	e := sim.New(1)
	n := 0
	var loop func()
	loop = func() {
		n++
		if n < b.N {
			e.MustAfter(0.001, loop)
		}
	}
	b.ResetTimer()
	e.MustAfter(0.001, loop)
	e.RunAll(0)
}

// BenchmarkNetworkBroadcast measures message fan-out cost (n=25).
func BenchmarkNetworkBroadcast(b *testing.B) {
	e := sim.New(1)
	nt := network.New(e, 25, network.Fixed{D: 0.001}, nil)
	for i := 0; i < 25; i++ {
		nt.Register(i, func(node.ID, network.Message) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt.Broadcast(i%25, network.Message{Round: i})
		e.RunAll(0)
	}
}

// benchPulseKind tags the benchmark's round announcements.
var benchPulseKind = network.NewKind("bench/pulse")

// noopProbe is the cheapest possible subscriber: the probed benchmark
// variant measures pure fan-out overhead, and the allocation assertion
// proves the emission path itself does not allocate.
type noopProbe struct{ events uint64 }

func (p *noopProbe) OnEvent(Event) { p.events++ }

// benchPayload is the structured content of the payload pulse input: a
// non-nil Payload sends every delivery through the network's arena
// instead of inline, the path authenticated (signature-carrying)
// protocol messages take.
var benchPayload any = "bench/payload"

// benchPulseMsg is one round announcement: scalar-only (inline) when
// payload is nil, an arena-backed payload envelope otherwise.
func benchPulseMsg(round int, payload any) network.Message {
	return network.Message{Kind: benchPulseKind, Round: round, Payload: payload}
}

// benchPulseNet builds the n-node broadcast fixture with a few warm
// rounds so the event buckets and delivery pools are at steady-state
// size: the ladder queue re-anchors its bucket grid on every round, so
// per-bucket occupancy (and with it the retained capacity) needs several
// rounds to reach its high-water mark. payload selects the envelope
// shape (see benchPulseMsg).
func benchPulseNet(n int, probed bool, payload any) (*sim.Engine, *network.Net, *noopProbe) {
	e := sim.New(1)
	nt := network.New(e, n, network.Uniform{Min: 0.002, Max: 0.01}, nil)
	for i := 0; i < n; i++ {
		nt.Register(i, func(node.ID, network.Message) {})
	}
	var p *noopProbe
	if probed {
		p = &noopProbe{}
		e.Probes().Attach(p, MessageEventTypes()...)
	}
	// One double-fan round first: every sender broadcasts twice, so every
	// bucket, arena, and scratch capacity is warmed to ~2x the steady
	// occupancy — random per-round occupancy drift can then never cross a
	// growth threshold mid-measurement.
	for from := 0; from < n; from++ {
		nt.Broadcast(from, benchPulseMsg(0, payload))
		nt.Broadcast(from, benchPulseMsg(0, payload))
	}
	e.RunAll(0)
	for round := 0; round < 3; round++ {
		for from := 0; from < n; from++ {
			nt.Broadcast(from, benchPulseMsg(0, payload))
		}
		e.RunAll(0)
	}
	return e, nt, p
}

// benchmarkPulseRound measures one full "pulse round" of the message
// substrate: every node broadcasts one round announcement and the engine
// drains all deliveries. This is the O(n^2) hot path of every simulated
// resynchronization round, so allocs/op here bound the large-n cost of
// the whole simulator. Before PR 2's typed-envelope/pooled-event refactor
// this cost ~2 allocs per message (a closure and a heap event each); the
// probed variant attaches a no-op probe to every message event type and
// must stay at 0 allocs/op too (BENCH_PR4.json records probe-off vs
// probe-on, CI enforces both).
func benchmarkPulseRound(b *testing.B, n int, probed bool, payload any) {
	e, nt, _ := benchPulseNet(n, probed, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for from := 0; from < n; from++ {
			nt.Broadcast(from, benchPulseMsg(i+1, payload))
		}
		e.RunAll(0)
	}
	b.ReportMetric(float64(n*n), "msgs/op")
}

// BenchmarkPulseRound sizes: the n=2048 tier (4.2M messages per op) is
// the large-n regime the ladder scheduler targets; it holds the whole
// round's events in the value-inline buckets (~250 MB peak, no GC
// pressure — the buckets contain no pointers) and must stay 0 allocs/op
// like every other size.
func BenchmarkPulseRound(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkPulseRound(b, n, false, nil) })
		b.Run(fmt.Sprintf("n=%d/probed", n), func(b *testing.B) { benchmarkPulseRound(b, n, true, nil) })
	}
}

// BenchmarkPulseRoundPayload is BenchmarkPulseRound with payload
// envelopes, the shape of the authenticated protocol's signature-set
// broadcasts: every delivery goes through the network's arena, where
// one broadcast's recipients share one reference-counted slot.
func BenchmarkPulseRoundPayload(b *testing.B) {
	for _, n := range []int{128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkPulseRound(b, n, false, benchPayload) })
	}
}

// TestPulseRoundZeroAllocsWithNoopProbe is the tier-1 (non-bench) guard
// on the probed hot path: a full n=32 pulse round with a no-op probe
// subscribed to every message event type must not allocate, for inline
// envelopes and for payload envelopes (the arena path) alike.
func TestPulseRoundZeroAllocsWithNoopProbe(t *testing.T) {
	const n = 32
	for _, payload := range []any{nil, benchPayload} {
		e, nt, p := benchPulseNet(n, true, payload)
		round := 0
		allocs := testing.AllocsPerRun(20, func() {
			round++
			for from := 0; from < n; from++ {
				nt.Broadcast(from, benchPulseMsg(round, payload))
			}
			e.RunAll(0)
		})
		if allocs != 0 {
			t.Fatalf("probed pulse round (payload %v) allocates %v per round", payload, allocs)
		}
		if p.events == 0 {
			t.Fatal("probe saw no events")
		}
	}
}

// benchShardKick turns a kick event into a round announcement from the
// sender it names. The benchmark injects one kick per node per round with
// an explicit key on the sender's lane (Cause = At = the round instant,
// which no engine-assigned key can collide with, since real deliveries
// always have At > Cause); rebinding the exec lane before Broadcast makes
// the fan-out consume the sender's own lane sequence, exactly as node
// code does.
type benchShardKick struct {
	eng     *sim.Engine
	nt      *network.Net
	payload any
}

func (k *benchShardKick) Dispatch(_ sim.Time, m sim.Message) {
	k.eng.SetExecLane(m.From)
	k.nt.Broadcast(int(m.From), benchPulseMsg(int(m.Round), k.payload))
}

// shardedPulseFixture is benchPulseNet for the conservative parallel
// engine: n nodes striped over k shard engines with persistent parked
// workers, a kick dispatcher per shard, and the Uniform LAN policy whose
// 2ms floor is the lookahead.
type shardedPulseFixture struct {
	coord *sim.Shards
	engs  []*sim.Engine
	tgt   []int
	owner []int32
	n     int
	round int
}

func benchPulseNetSharded(n, k int, payload any) *shardedPulseFixture {
	coord := sim.NewShards(1, k, 0.002)
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = int32(i * k / n)
	}
	nets := network.NewSharded(coord, n, network.Uniform{Min: 0.002, Max: 0.01}, nil, owner)
	for _, nt := range nets {
		for i := 0; i < n; i++ {
			nt.Register(i, func(node.ID, network.Message) {})
		}
	}
	f := &shardedPulseFixture{coord: coord, owner: owner, n: n}
	for i := 0; i < k; i++ {
		eng := coord.Shard(i)
		f.engs = append(f.engs, eng)
		f.tgt = append(f.tgt, eng.RegisterDispatcher(&benchShardKick{eng: eng, nt: nets[i], payload: payload}))
	}
	// Same warm-up shape as benchPulseNet: one double-fan round, then a
	// few steady rounds, so buckets, mailboxes, and merge scratch reach
	// their high-water capacity before measurement.
	f.kickRound(2)
	for i := 0; i < 3; i++ {
		f.kickRound(1)
	}
	return f
}

// kickRound schedules fan broadcasts per node at the next whole-second
// round instant and drains the window machinery to quiescence.
func (f *shardedPulseFixture) kickRound(fan int) {
	f.round++
	at := float64(f.round)
	for from := 0; from < f.n; from++ {
		sh := f.owner[from]
		for c := 0; c < fan; c++ {
			f.engs[sh].ScheduleMsg(
				sim.Key{At: at, Cause: at, Lane: int32(from), Seq: uint32(c)},
				f.tgt[sh],
				sim.Message{From: int32(from), Round: int32(f.round)},
			)
		}
	}
	f.coord.Drain()
}

// BenchmarkPulseRoundSharded is BenchmarkPulseRound on the sharded
// engine: one op is a full n-wide pulse round (n^2 messages) through k
// worker shards, window barriers and cross-shard mailboxes included.
// shards=1 runs the identical machinery with no remote traffic, so the
// shards=8/shards=1 ratio isolates the parallel speedup; on a single
// hardware thread the ratio instead prices the coordination overhead.
// Steady state must stay 0 allocs/op at every shard count, like the
// serial engine (BENCH_PR7.json records the matrix, CI gates it).
func BenchmarkPulseRoundSharded(b *testing.B) {
	for _, n := range []int{512, 2048} {
		for _, k := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, k), func(b *testing.B) {
				f := benchPulseNetSharded(n, k, nil)
				b.Cleanup(f.coord.Close)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.kickRound(1)
				}
				b.ReportMetric(float64(n*n), "msgs/op")
			})
		}
	}
}

// TestShardedPulseRoundZeroAllocs is the tier-1 guard on the sharded hot
// path: a full pulse round — kicks, fan-out, cross-shard exchange,
// barriers — must not allocate once warm: inline envelopes across 4
// shards, and payload envelopes (arena slots re-interned on the
// receiving shard) across 2.
func TestShardedPulseRoundZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		shards  int
		payload any
	}{{4, nil}, {2, benchPayload}} {
		f := benchPulseNetSharded(32, c.shards, c.payload)
		allocs := testing.AllocsPerRun(20, func() { f.kickRound(1) })
		f.coord.Close()
		if allocs != 0 {
			t.Fatalf("sharded pulse round (shards %d, payload %v) allocates %v per round", c.shards, c.payload, allocs)
		}
	}
}

// BenchmarkSignHMAC / BenchmarkSignEd25519 compare the signature schemes.
func BenchmarkSignHMAC(b *testing.B) {
	s := sig.NewHMAC(4, 1)
	payload := []byte("optsync/st/round/0000000000000001")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign(i%4, payload)
	}
}

func BenchmarkSignEd25519(b *testing.B) {
	s := sig.NewEd25519(4, 1)
	payload := []byte("optsync/st/round/0000000000000001")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign(i%4, payload)
	}
}

func BenchmarkVerifyHMAC(b *testing.B) {
	s := sig.NewHMAC(4, 1)
	payload := []byte("optsync/st/round/0000000000000001")
	sg := s.Sign(0, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Verify(0, payload, sg) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkVerifyEd25519(b *testing.B) {
	s := sig.NewEd25519(4, 1)
	payload := []byte("optsync/st/round/0000000000000001")
	sg := s.Sign(0, payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Verify(0, payload, sg) {
			b.Fatal("verify failed")
		}
	}
}

// protocolRoundSpec is an authenticated n=25 run of about rounds
// resynchronization rounds (Period 1 s).
func protocolRoundSpec(rounds int) Spec {
	p := benchParams(25, bounds.Auth)
	return Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		Horizon: float64(rounds) + 2, Seed: 1,
	}
}

// BenchmarkProtocolRound measures end-to-end cost of one simulated
// resynchronization round (n=25, authenticated).
func BenchmarkProtocolRound(b *testing.B) {
	spec := protocolRoundSpec(b.N)
	b.ResetTimer()
	res := mustRun(b, spec)
	if res.CompleteRounds == 0 {
		b.Fatal("no rounds")
	}
	b.ReportMetric(float64(res.TotalMsgs)/float64(b.N), "msgs/round")
}

// protocolRoundAllocCeiling caps TestProtocolRoundAllocs: 233.4
// allocations per round measured with Go 1.24, plus 10%.
const protocolRoundAllocCeiling = 257

// TestProtocolRoundAllocs is the tier-1 guard on the real protocol
// round: BenchmarkProtocolRound's workload over 200 rounds, set-up
// included, must stay under protocolRoundAllocCeiling allocations per
// round.
func TestProtocolRoundAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race, so pooled scratch reallocates")
	}
	const rounds = 200
	spec := protocolRoundSpec(rounds)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}) / rounds
	t.Logf("%.1f allocs/round", allocs)
	if allocs > protocolRoundAllocCeiling {
		t.Fatalf("protocol round allocates %.1f per round, ceiling %d", allocs, protocolRoundAllocCeiling)
	}
}

// --- Batch throughput ---

// batchSpecs is a T1-style slate of independent runs.
func batchSpecs(k int) []Spec {
	p := benchParams(7, bounds.Auth)
	specs := make([]Spec, k)
	for i := range specs {
		specs[i] = Spec{
			Algo: AlgoAuth, Params: p,
			FaultyCount: p.F, Attack: AttackSilent,
			Horizon: 20, Seed: int64(i + 1),
		}
	}
	return specs
}

func benchBatch(b *testing.B, workers int) {
	specs := batchSpecs(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(context.Background(), specs, WithWorkers(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBatchSerial vs BenchmarkRunBatchParallel measure the
// worker-pool speedup on a 16-run slate (near-linear on a multi-core
// host: runs share nothing).
func BenchmarkRunBatchSerial(b *testing.B)   { benchBatch(b, 1) }
func BenchmarkRunBatchParallel(b *testing.B) { benchBatch(b, runtime.GOMAXPROCS(0)) }
