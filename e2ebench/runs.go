package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"optsync"
)

// stParams is the paper's parameterization used by every workload.
func stParams(n, f int) optsync.Params {
	return optsync.Params{
		N: n, F: f, Variant: optsync.Auth,
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period: 1.0, InitialSkew: 0.005,
	}.WithDefaults()
}

// authMeshSpec is the authenticated algorithm at optimal resilience,
// n=128, f=63 equivocators, full mesh, 30 s horizon.
func authMeshSpec(toy bool) optsync.Spec {
	n, f, horizon := 128, 63, 30.0
	if toy {
		n, f, horizon = 7, 3, 5
	}
	return optsync.Spec{
		Algo: optsync.AlgoAuth, Params: stParams(n, f),
		FaultyCount: f, Attack: optsync.AttackEquivocate, Horizon: horizon,
	}
}

// ringSpec is the large-n workload: n=4096 on ring:8, f=3 silent
// faults, 5 s horizon, default (automatic) shards.
func ringSpec(toy bool) optsync.Spec {
	n, horizon := 4096, 5.0
	if toy {
		n, horizon = 64, 3
	}
	return optsync.Spec{
		Algo: optsync.AlgoAuth, Params: stParams(n, 3), Topology: "ring:8",
		FaultyCount: 3, Attack: optsync.AttackSilent, Horizon: horizon,
	}
}

// autoShards mirrors optsync's documented Shards=0 rule (serial below
// n=1024, else min(GOMAXPROCS, 8) workers): the number of engine workers
// a default run uses.
func autoShards(n int) int {
	if n < 1024 {
		return 1
	}
	k := runtime.GOMAXPROCS(0)
	if k > 8 {
		k = 8
	}
	return k
}

// warmupSeedOffset places warm-up runs far outside any measured seed
// sequence.
const warmupSeedOffset = 1 << 40

// runWorkload runs one optsync.Run per op, with consecutive seeds
// starting at the workload seed.
type runWorkload struct {
	spec optsync.Spec
	base int64 // first measured seed
	next int64

	lat   [2][]float64 // op seconds, untraced/traced
	rate  []float64    // simulated messages per host second, per untraced op
	stats runStats     // untraced ops

	// The last untraced op's protocol-visible record: the traced op
	// that follows re-runs its seed and must reproduce it.
	plain  []byte
	layers layerTotals
}

func newRunWorkload(spec optsync.Spec, seed int64) *runWorkload {
	return &runWorkload{spec: spec, base: seed, next: seed}
}

func idx(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// prepare validates the spec and runs one warm-up op on a seed outside
// the measured sequence.
func (w *runWorkload) prepare() error {
	w.next = w.base
	spec := w.spec
	spec.Seed = w.base + warmupSeedOffset
	if _, err := optsync.SpecKey(spec); err != nil {
		return err
	}
	res, err := optsync.Run(background, spec)
	if err != nil {
		return err
	}
	return checkRun(res)
}

func (w *runWorkload) op(traced bool) error {
	spec := w.spec
	if traced {
		// A traced op re-runs the seed of the untraced op before it.
		spec.Seed = w.next - 1
		spec.Algo = timedAlgo
		nodeTracer.take() // drop nodes of any earlier failed run
	} else {
		spec.Seed = w.next
		w.next++
	}
	t0 := time.Now()
	res, err := optsync.Run(background, spec)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	w.lat[idx(traced)] = append(w.lat[idx(traced)], wall)
	if traced {
		w.layers.addResidual(wall, autoShards(spec.Params.N), w.layers.addNodes(nodeTracer.take()))
	} else {
		w.rate = append(w.rate, float64(res.TotalMsgs)/wall)
		w.stats.add(res)
	}
	if err := checkRun(res); err != nil {
		return err
	}
	view, err := protocolView(res)
	if err != nil {
		return err
	}
	if !traced {
		w.plain = view
	} else if !bytes.Equal(view, w.plain) {
		return fmt.Errorf("seed %d: traced run changed protocol-visible result fields", spec.Seed)
	}
	return nil
}

// checkOnce re-runs the first measured spec at another shard count and
// requires a byte-identical result record.
func (w *runWorkload) checkOnce() error {
	spec := w.spec
	spec.Seed = w.base
	alt := 2
	if autoShards(spec.Params.N) > 1 {
		alt = 1
	}
	return checkShardIdentity(spec, alt)
}

func (w *runWorkload) opSeconds(traced bool) []float64 { return w.lat[idx(traced)] }

// report adds the end-to-end metrics of the untraced ops and, when
// traced, the per-layer metrics of the traced ones.
func (w *runWorkload) report(r *record, traced bool) {
	lat := w.lat[0]
	r.add("run_s_p50", median(lat), "s", len(lat))
	r.add("op_s_p50", median(lat), "s", len(lat))
	r.add("msgs_per_s", median(w.rate), "1/s", len(lat))
	w.stats.report(r, len(lat))
	r.checks = append(r.checks,
		"every run: no error, within_skew, within_envelope, complete_rounds >= floor(horizon/P)-1",
		"every traced run: protocol-visible result fields equal the untraced run of the same seed",
		"once: the first seed at another shard count gives a byte-identical result record")
	if traced {
		w.layers.report(r, len(w.lat[1]))
	}
}
