package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"optsync"
)

// sweepShape sizes the sweep-trace workload.
type sweepShape struct {
	cellN, cellF int
	faulty       []int
	attacks      []string
	seeds        int
	cellHorizon  float64
	record       optsync.Spec
	warmPasses   int // warm resumes per session (one is too short to time)
	queries      int // selective queries per session
	fullScans    int // full scans per session
}

func newSweepShape(toy bool) sweepShape {
	if toy {
		return sweepShape{
			cellN: 7, cellF: 3, faulty: []int{0, 1}, attacks: []string{"silent"},
			seeds: 2, cellHorizon: 5, record: authMeshSpec(true),
			warmPasses: 2, queries: 20, fullScans: 2,
		}
	}
	return sweepShape{
		cellN: 7, cellF: 3, faulty: []int{0, 1, 2, 3},
		attacks: []string{"silent", "equivocate", "rush"},
		seeds:   20, cellHorizon: 20, record: authMeshSpec(false),
		warmPasses: 10, queries: 150, fullScans: 10,
	}
}

// sweepWorkload: per op (a session), a cold campaign pass served over
// the fabric into a fresh store, warm resumes from that store, a run
// recorded to a trace lake, and a seeded query mix over the lake.
type sweepWorkload struct {
	shape    sweepShape
	seed     int64
	dir      string
	sessions int
	queries  []optsync.LakeQuery
	// Per query: the match count a filter over one full scan gives,
	// computed once per invocation, untimed.
	want []uint64
	// The first session's lake digest, aggregates and recorded result;
	// later sessions, traced ones included, must reproduce them.
	lakeHash, groups, recordView []byte

	sessS [2][]float64 // session seconds, untraced/traced
	// Leg timings and counts of the untraced sessions.
	cellsPerS, resumeS, recordS, compactS []float64
	queryMs, scanRate, replayS, simRate   []float64
	stats                                 runStats
	// Per-layer totals of the traced sessions.
	layers layerTotals
	fab    fabricTotals
	lake   lakeTotals
}

// fabricTotals accumulates the traced fabric, store and lake-write
// layers across sessions.
type fabricTotals struct {
	leaseMs, reportMs, storeGetUs []float64
	compactS                      []float64
	leases, reports, retries      int
	bytes                         int64
	rpcS, coldS                   float64
	probeEvents                   uint64
	probeS, writeS, flushS        float64
	lakeBytes                     int64
}

// lakeTotals accumulates the traced lake-read layer.
type lakeTotals struct {
	openS            float64
	pruned, scanned  int
	decoded, matched uint64
}

func newSweepWorkload(seed int64, toy bool, dir string) *sweepWorkload {
	w := &sweepWorkload{shape: newSweepShape(toy), seed: seed, dir: dir}
	w.queries = queryMix(rand.New(rand.NewSource(seed)), w.shape)
	return w
}

// queryMix draws the selective queries: by node, round, type, and time
// window, each alone or combined with a type.
func queryMix(rng *rand.Rand, s sweepShape) []optsync.LakeQuery {
	p := s.record
	types := []string{"pulse", "resync", "skew_sample", "message_sent", "message_delivered"}
	out := make([]optsync.LakeQuery, s.queries)
	for i := range out {
		var q optsync.LakeQuery
		switch i % 4 {
		case 0:
			q = q.WithNode(int32(rng.Intn(p.Params.N)))
		case 1:
			q = q.WithRound(int32(1 + rng.Intn(int(p.Horizon/p.Params.Period)-1)))
		case 2:
			t, _ := optsync.EventTypeByName(types[rng.Intn(len(types))])
			q = q.WithTypes(t)
		case 3:
			lo := rng.Float64() * (p.Horizon - 0.1)
			q = q.WithTimeRange(lo, lo+0.02+0.08*rng.Float64())
		}
		if i%8 >= 4 && i%4 != 2 {
			t, _ := optsync.EventTypeByName(types[rng.Intn(len(types))])
			q = q.WithTypes(t)
		}
		out[i] = q
	}
	return out
}

func (w *sweepWorkload) campaign(traced bool) optsync.Campaign {
	s := w.shape
	algo := optsync.AlgoAuth
	if traced {
		algo = timedAlgo
	}
	return optsync.Campaign{
		Name: "e2ebench-sweep",
		Base: optsync.Spec{
			Algo: algo, Params: stParams(s.cellN, s.cellF),
			Attack: optsync.AttackSilent, Horizon: s.cellHorizon,
			Seed: w.seed * 1_000_000,
		},
		Axes: []optsync.Axis{
			{Field: "faulty", Values: optsync.Ints(s.faulty...)},
			{Field: "attack", Values: optsync.Strings(s.attacks...)},
		},
		Seeds: s.seeds,
	}
}

func (w *sweepWorkload) recordSpec(traced bool) optsync.Spec {
	spec := w.shape.record
	spec.Seed = w.seed*1_000_000 + 999_999
	if traced {
		spec.Algo = timedAlgo
	}
	return spec
}

// prepare runs one untimed session; the first also derives the
// reference match counts from one full scan of the recorded lake.
func (w *sweepWorkload) prepare() error {
	return w.session(false, false)
}

func (w *sweepWorkload) op(traced bool) error { return w.session(traced, true) }

// session runs one cold→warm→record→query pass in a fresh directory.
func (w *sweepWorkload) session(traced, timed bool) error {
	w.sessions++
	dir := filepath.Join(w.dir, fmt.Sprintf("session-%d", w.sessions))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if traced {
		nodeTracer.take()
	}
	var legs float64 // session time: the sum of its timed legs

	// (a) Cold pass over the fabric into a fresh store.
	store, err := optsync.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	camp := w.campaign(traced)
	cold, coldS, err := w.coldPass(camp, store, traced)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := optsync.CompactStore(store); err != nil {
		return err
	}
	compactS := time.Since(t0).Seconds()
	legs += coldS + compactS

	// (b) Warm resumes from the store.
	var warm *optsync.CampaignReport
	var resume []float64
	for k := 0; k < w.shape.warmPasses; k++ {
		t0 := time.Now()
		warm, err = optsync.RunCampaign(background, camp, optsync.WithStore(store))
		if err != nil {
			return err
		}
		resume = append(resume, time.Since(t0).Seconds())
		if warm.Executed != 0 {
			return fmt.Errorf("warm resume executed %d of %d cells", warm.Executed, warm.Total)
		}
	}
	legs += sum(resume)
	if err := checkAggregates(cold, warm); err != nil {
		return err
	}
	groups, err := json.Marshal(cold.Groups)
	if err != nil {
		return err
	}
	if w.groups == nil {
		w.groups = groups
	} else if !bytes.Equal(groups, w.groups) {
		return fmt.Errorf("campaign aggregates changed between sessions (traced: %v)", traced)
	}
	cellNodes := nodeTracer.take()
	if traced {
		for _, c := range warm.Cells {
			t0 := time.Now()
			if _, ok, err := store.Get(c.Key); err != nil || !ok {
				return fmt.Errorf("store get %s: ok=%v err=%v", c.Key, ok, err)
			}
			w.fab.storeGetUs = append(w.fab.storeGetUs, float64(time.Since(t0))/1e3)
		}
	}

	// (c) One run recorded to a lake.
	lakePath := filepath.Join(dir, "run.lake")
	res, recordS, err := w.record(lakePath, traced)
	if err != nil {
		return err
	}
	legs += recordS
	if err := checkRun(res); err != nil {
		return err
	}
	if err := w.checkLakeBytes(lakePath); err != nil {
		return err
	}

	if w.want == nil {
		// Untimed: the first session is part of set-up.
		if w.want, err = referenceCounts(lakePath, w.queries); err != nil {
			return err
		}
	}
	view, err := protocolView(res)
	if err != nil {
		return err
	}
	if w.recordView == nil {
		w.recordView = view
	} else if !bytes.Equal(view, w.recordView) {
		return fmt.Errorf("recorded run's protocol-visible result fields changed (traced: %v)", traced)
	}

	// (d) Query mix, full scans and a replay.
	queryS, qms, rates, replayS, err := w.queryPass(lakePath, res, traced)
	if err != nil {
		return err
	}
	legs += queryS

	if !timed {
		return nil
	}
	w.sessS[idx(traced)] = append(w.sessS[idx(traced)], legs)
	if traced {
		// Cell runs overlap on the worker pool, so only the recorded
		// run contributes to sim.residual_s.
		w.layers.addNodes(cellNodes)
		w.layers.addResidual(recordS, autoShards(res.Spec.Params.N), w.layers.addNodes(nodeTracer.take()))
		w.fab.coldS += coldS
		w.fab.compactS = append(w.fab.compactS, compactS)
		return nil
	}
	w.cellsPerS = append(w.cellsPerS, float64(cold.Total)/coldS)
	w.resumeS = append(w.resumeS, resume...)
	w.compactS = append(w.compactS, compactS)
	w.recordS = append(w.recordS, recordS)
	w.queryMs = append(w.queryMs, qms...)
	w.scanRate = append(w.scanRate, rates...)
	w.replayS = append(w.replayS, replayS)
	msgs := res.TotalMsgs
	for _, r := range cold.Results {
		msgs += r.TotalMsgs
		w.stats.add(r)
	}
	w.simRate = append(w.simRate, float64(msgs)/(coldS+recordS))
	w.stats.add(res)
	return nil
}

// coldPass serves the campaign on loopback to one worker and returns the
// coordinator's report and the time until the last cell settled.
func (w *sweepWorkload) coldPass(camp optsync.Campaign, store *optsync.Store, traced bool) (*optsync.CampaignReport, float64, error) {
	var (
		mu      sync.Mutex
		settled time.Time
	)
	ready := make(chan string, 1)
	type served struct {
		report *optsync.CampaignReport
		err    error
	}
	done := make(chan served, 1)
	start := time.Now()
	go func() {
		report, err := optsync.ServeCampaign(background, camp, store, optsync.FabricServeOptions{
			ServerOptions: optsync.FabricServerOptions{
				Progress: func(done, total int) {
					if done == total {
						mu.Lock()
						settled = time.Now()
						mu.Unlock()
					}
				},
			},
			Ready:  func(addr string) { ready <- "http://" + addr },
			Linger: 50 * time.Millisecond,
		})
		done <- served{report, err}
	}()
	var url string
	select {
	case url = <-ready:
	case s := <-done:
		return nil, 0, fmt.Errorf("coordinator: %v", s.err)
	}

	opts := optsync.FabricWorkerOptions{
		Name:         "e2ebench",
		Workers:      1,
		PollInterval: 20 * time.Millisecond,
		Rand:         rand.New(rand.NewSource(w.seed*7919 + int64(w.sessions))),
	}
	var rt *rpcTimer
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxConnsPerHost = runtime.NumCPU()
	opts.HTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: transport}
	if traced {
		rt = &rpcTimer{base: transport}
		opts.HTTPClient.Transport = rt
	}
	stats, werr := optsync.RunWorker(background, url, opts)
	s := <-done
	transport.CloseIdleConnections()
	if err := errors.Join(werr, s.err); err != nil {
		return nil, 0, err
	}
	mu.Lock()
	coldS := settled.Sub(start).Seconds()
	mu.Unlock()
	if s.report.Total != len(s.report.Results) || coldS <= 0 {
		return nil, 0, fmt.Errorf("cold pass settled %d of %d cells", len(s.report.Results), s.report.Total)
	}
	if rt != nil {
		w.fab.leaseMs = append(w.fab.leaseMs, rt.lease...)
		w.fab.reportMs = append(w.fab.reportMs, rt.reports...)
		w.fab.leases += len(rt.lease)
		w.fab.reports += len(rt.reports)
		w.fab.bytes += rt.bytes
		w.fab.rpcS += rt.totalS
		w.fab.retries += stats.Retries
	}
	return s.report, coldS, nil
}

// record runs the record spec with a lake attached; the time includes
// the lake's Flush and the file's Close.
func (w *sweepWorkload) record(path string, traced bool) (optsync.Result, float64, error) {
	spec := w.recordSpec(traced)
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return optsync.Result{}, 0, err
	}
	defer f.Close()
	var res optsync.Result
	if !traced {
		res, err = optsync.Run(background, spec, optsync.WithLakeTrace(optsync.NewLakeWriter(f)))
		if err == nil {
			err = f.Close()
		}
		return res, time.Since(t0).Seconds(), err
	}
	tw := &timedWriter{w: f}
	lp := &lakeProbe{w: optsync.NewLakeWriter(tw)}
	res, err = optsync.Run(background, spec, optsync.WithProbe(lp))
	if err != nil {
		return res, 0, err
	}
	t1 := time.Now()
	if err := lp.w.Flush(); err != nil {
		return res, 0, err
	}
	flushS := time.Since(t1).Seconds()
	if err := f.Close(); err != nil {
		return res, 0, err
	}
	recordS := time.Since(t0).Seconds()
	w.fab.probeEvents += lp.events
	w.fab.probeS += float64(lp.ns) / 1e9
	w.fab.writeS += float64(tw.ns) / 1e9
	w.fab.flushS += flushS
	w.fab.lakeBytes += tw.n
	return res, recordS, nil
}

// checkLakeBytes requires every session to record the same lake bytes
// (the record spec is fixed per invocation and runs are deterministic).
func (w *sweepWorkload) checkLakeBytes(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(data)
	if w.lakeHash == nil {
		w.lakeHash = digest[:]
		return nil
	}
	if !bytes.Equal(w.lakeHash, digest[:]) {
		return fmt.Errorf("recorded lake differs from the first session's")
	}
	return nil
}

// queryPass opens the lake and runs the query mix, the full scans and a
// replay. It returns the pass time, each query's latency in ms, each
// full scan's events per second, and the replay time.
func (w *sweepWorkload) queryPass(path string, res optsync.Result, traced bool) (float64, []float64, []float64, float64, error) {
	start := time.Now()
	lake, err := optsync.OpenLake(path)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	defer lake.Close()
	openS := time.Since(start).Seconds()
	var st optsync.LakeScanStats
	qms := make([]float64, len(w.queries))
	for i, q := range w.queries {
		var n uint64
		t0 := time.Now()
		s, err := lake.ScanUnordered(q.WithWorkers(1), func(optsync.Event) error { n++; return nil })
		qms[i] = float64(time.Since(t0)) / 1e6
		if err != nil {
			return 0, nil, nil, 0, err
		}
		if n != w.want[i] {
			return 0, nil, nil, 0, fmt.Errorf("query %d (%+v) matched %d events, full-scan filter %d", i, q, n, w.want[i])
		}
		addScan(&st, s)
	}
	rates := make([]float64, w.shape.fullScans)
	for i := range rates {
		var n uint64
		t0 := time.Now()
		s, err := lake.ScanUnordered(optsync.LakeQuery{}, func(optsync.Event) error { n++; return nil })
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, nil, nil, 0, err
		}
		if n != lake.Events() {
			return 0, nil, nil, 0, fmt.Errorf("full scan saw %d of %d events", n, lake.Events())
		}
		rates[i] = float64(n) / d
		addScan(&st, s)
	}
	t0 := time.Now()
	if err := checkReplay(path, res); err != nil {
		return 0, nil, nil, 0, err
	}
	replayS := time.Since(t0).Seconds()
	passS := time.Since(start).Seconds()
	if traced {
		w.lake.openS += openS
		w.lake.pruned += st.BlocksPruned
		w.lake.scanned += st.BlocksScanned
		w.lake.decoded += st.RowsDecoded
		w.lake.matched += st.EventsMatched
	}
	return passS, qms, rates, replayS, nil
}

func addScan(dst *optsync.LakeScanStats, s optsync.LakeScanStats) {
	dst.BlocksPruned += s.BlocksPruned
	dst.BlocksScanned += s.BlocksScanned
	dst.RowsDecoded += s.RowsDecoded
	dst.EventsMatched += s.EventsMatched
}

// referenceCounts filters one full scan through every query's
// predicates.
func referenceCounts(path string, queries []optsync.LakeQuery) ([]uint64, error) {
	lake, err := optsync.OpenLake(path)
	if err != nil {
		return nil, err
	}
	defer lake.Close()
	want := make([]uint64, len(queries))
	_, err = lake.ScanUnordered(optsync.LakeQuery{}, func(ev optsync.Event) error {
		for i := range queries {
			if matches(&queries[i], ev) {
				want[i]++
			}
		}
		return nil
	})
	return want, err
}

// matches is the documented LakeQuery predicate, evaluated row by row.
func matches(q *optsync.LakeQuery, ev optsync.Event) bool {
	if len(q.Types) > 0 {
		ok := false
		for _, t := range q.Types {
			ok = ok || t == ev.Type
		}
		if !ok {
			return false
		}
	}
	if q.FilterNode && ev.From != q.Node && ev.To != q.Node {
		return false
	}
	if q.FilterTime && (ev.T < q.TMin || ev.T > q.TMax) {
		return false
	}
	if q.FilterRound && (ev.Round < q.RoundMin || ev.Round > q.RoundMax) {
		return false
	}
	return true
}

// checkOnce re-runs the record spec at two engine workers and requires
// the single-engine result record.
func (w *sweepWorkload) checkOnce() error {
	return checkShardIdentity(w.recordSpec(false), 2)
}

func (w *sweepWorkload) opSeconds(traced bool) []float64 { return w.sessS[idx(traced)] }

// report adds the end-to-end metrics of the untraced sessions and, when
// traced, the per-layer metrics of the traced ones.
func (w *sweepWorkload) report(r *record, traced bool) {
	n := len(w.sessS[0])
	r.add("op_s_p50", median(w.sessS[0]), "s", n)
	r.add("msgs_per_s", median(w.simRate), "1/s", n)
	r.add("cells_per_s", median(w.cellsPerS), "1/s", n)
	r.add("resume_s", median(w.resumeS), "s", len(w.resumeS))
	r.add("compact_s", median(w.compactS), "s", n)
	r.add("record_s", median(w.recordS), "s", n)
	r.add("query_ms_p50", quantile(w.queryMs, 0.50), "ms", len(w.queryMs))
	r.add("query_ms_p99", quantile(w.queryMs, 0.99), "ms", len(w.queryMs))
	r.add("scan_events_per_s", median(w.scanRate), "1/s", len(w.scanRate))
	r.add("replay_s", median(w.replayS), "s", n)
	w.stats.report(r, n)
	r.checks = append(r.checks,
		"every session: fabric aggregates equal the warm RunCampaign's byte for byte, and the first session's",
		"every session: warm resumes execute no cell",
		"every session: the recorded run passes the run check and matches the first session's result and lake bytes",
		"every session: each query's match count equals a filter over one full scan; full scans see every event",
		"every session: ReplayLake reproduces the recorded run's skew and traffic aggregates",
		"once: the recorded spec at two engine workers gives a byte-identical result record")
	r.notes = append(r.notes, "cells_per_s, resume_s, record_s, query_ms_*, scan_events_per_s and the "+
		"fabric/campaign/probe/tracelake layer metrics apply to this workload only, so they are in this "+
		"record but not in the result line, which carries the same metric set for every workload")
	if !traced {
		return
	}
	n = len(w.sessS[1])
	w.layers.report(r, n)
	f := &w.fab
	per := func(v float64) float64 { return v / float64(n) }
	r.add("fabric.lease_rpcs", per(float64(f.leases)), "count/op", n)
	r.add("fabric.report_rpcs", per(float64(f.reports)), "count/op", n)
	r.add("fabric.lease_ms_p50", median(f.leaseMs), "ms", len(f.leaseMs))
	r.add("fabric.report_ms_p50", median(f.reportMs), "ms", len(f.reportMs))
	r.add("fabric.retries", per(float64(f.retries)), "count/op", n)
	r.add("fabric.bytes", per(float64(f.bytes)), "B/op", n)
	r.add("fabric.rpc_share", f.rpcS/f.coldS, "ratio", n)
	r.add("campaign.store_get_us_p50", median(f.storeGetUs), "us", len(f.storeGetUs))
	r.add("campaign.compact_s", median(f.compactS), "s", n)
	r.add("probe.events", per(float64(f.probeEvents)), "count/op", n)
	r.add("probe.onevent_s", per(f.probeS), "s/op", n)
	r.add("tracelake.write_s", per(f.writeS), "s/op", n)
	r.add("tracelake.flush_s", per(f.flushS), "s/op", n)
	r.add("tracelake.bytes_per_event", float64(f.lakeBytes)/float64(f.probeEvents), "B", n)
	l := &w.lake
	r.add("tracelake.open_s", per(l.openS), "s/op", n)
	r.add("tracelake.blocks_pruned", per(float64(l.pruned)), "count/op", n)
	r.add("tracelake.blocks_scanned", per(float64(l.scanned)), "count/op", n)
	r.add("tracelake.rows_decoded", per(float64(l.decoded)), "count/op", n)
	r.add("tracelake.match_ratio", float64(l.matched)/float64(l.decoded), "ratio", n)
}
