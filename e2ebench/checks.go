package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"optsync"
)

// checkRun is the output check every run passes: no agreement or
// accuracy violation, and enough complete rounds that a dead run (zero
// rounds, vacuously within bounds) cannot pass.
func checkRun(res optsync.Result) error {
	spec := res.Spec
	if !res.WithinSkew {
		return fmt.Errorf("seed %d: max skew %g exceeds bound %g", spec.Seed, res.MaxSkew, res.SkewBound)
	}
	if !res.WithinEnvelope {
		return fmt.Errorf("seed %d: clock rates [%g, %g] outside envelope [%g, %g] (fit ok: %v)",
			spec.Seed, res.EnvLo, res.EnvHi, res.EnvBoundLo, res.EnvBoundHi, res.EnvelopeOK)
	}
	if want := int(math.Floor(spec.Horizon/spec.Params.Period)) - 1; res.CompleteRounds < want {
		return fmt.Errorf("seed %d: %d complete rounds, want at least %d", spec.Seed, res.CompleteRounds, want)
	}
	return nil
}

// resultRecord is a result's JSON record with the execution strategy
// (Spec.Shards, which never changes a result) cleared.
func resultRecord(res optsync.Result) ([]byte, error) {
	res.Spec.Shards = 0
	return json.Marshal(res)
}

// protocolView is a result's JSON record without its spec: every
// protocol-visible field (skew, spread, rounds, pulses, periods,
// envelope, traffic). A traced run differs from its untraced twin only
// in Spec.Algo.
func protocolView(res optsync.Result) ([]byte, error) {
	res.Spec = optsync.Spec{}
	return json.Marshal(res)
}

// checkSameRecord requires two results of one spec to have
// byte-identical records.
func checkSameRecord(a, b optsync.Result) error {
	ra, err := resultRecord(a)
	if err != nil {
		return err
	}
	rb, err := resultRecord(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ra, rb) {
		return fmt.Errorf("result records differ:\n  %s\n  %s", ra, rb)
	}
	return nil
}

// checkShardIdentity runs spec at its default shard count and at alt,
// and requires byte-identical result records.
func checkShardIdentity(spec optsync.Spec, alt int) error {
	a, err := optsync.Run(background, spec)
	if err != nil {
		return err
	}
	spec.Shards = alt
	b, err := optsync.Run(background, spec)
	if err != nil {
		return err
	}
	if err := checkSameRecord(a, b); err != nil {
		return fmt.Errorf("shards=%d vs default: %w", alt, err)
	}
	return nil
}

// checkAggregates requires the fabric report's aggregates to match a
// campaign report's byte for byte.
func checkAggregates(fabric, local *optsync.CampaignReport) error {
	fa, err := json.Marshal(fabric.Groups)
	if err != nil {
		return err
	}
	la, err := json.Marshal(local.Groups)
	if err != nil {
		return err
	}
	if !bytes.Equal(fa, la) {
		return fmt.Errorf("fabric aggregates differ from RunCampaign:\n  %s\n  %s", fa, la)
	}
	if fabric.Total != local.Total {
		return fmt.Errorf("fabric settled %d cells, RunCampaign %d", fabric.Total, local.Total)
	}
	return nil
}

// checkReplay replays a recorded lake through fresh collectors and
// requires the recording run's aggregates.
func checkReplay(path string, res optsync.Result) error {
	skew := optsync.NewSkewCollector()
	msgs := optsync.NewMsgCollector()
	if _, err := optsync.ReplayLake(path, optsync.LakeQuery{}, skew, msgs); err != nil {
		return err
	}
	got := [...]float64{skew.Max(), float64(skew.Count()), skew.P50(), skew.P95(), skew.P99(),
		float64(msgs.Sent()), float64(msgs.Delivered())}
	want := [...]float64{res.MaxSkew, float64(res.SkewSamples), res.SkewP50, res.SkewP95, res.SkewP99,
		float64(res.TotalMsgs), float64(res.Delivered)}
	if got != want {
		return fmt.Errorf("replay aggregates %v, run reported %v (max, samples, p50, p95, p99, sent, delivered)", got, want)
	}
	return nil
}

// runStats folds results into the per-op counts every workload reports.
type runStats struct {
	runs, skewSamples, inversions int
	msgs, delivered, dropped      uint64
}

func (s *runStats) add(res optsync.Result) {
	s.runs++
	s.skewSamples += res.SkewSamples
	if res.SkewP95 < res.SkewP50 || res.SkewP99 < res.SkewP95 {
		// The streaming P² estimators behind the quantiles do not keep
		// them ordered: a known defect, counted rather than failed.
		s.inversions++
	}
	s.msgs += res.TotalMsgs
	s.delivered += res.Delivered
	s.dropped += res.Dropped + res.DroppedOffline + res.DroppedLink
}

// report adds the counts, per op.
func (s *runStats) report(r *record, ops int) {
	per := func(v float64) float64 { return v / float64(ops) }
	r.add("network.msgs", per(float64(s.msgs)), "count/op", ops)
	r.add("network.delivered", per(float64(s.delivered)), "count/op", ops)
	r.add("network.dropped", per(float64(s.dropped)), "count/op", ops)
	r.add("harness.skew_samples", per(float64(s.skewSamples)), "count/op", ops)
	r.add("harness.skew_quantile_inversions", per(float64(s.inversions)), "count/op", s.runs)
}
