package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optsync"
)

// workloadMetrics are the record metrics each workload must print, per
// mode, beyond the result-line set.
var workloadMetrics = map[string][]string{
	"auth-mesh":   {"run_s_p50", "error_rate"},
	"ring-4096":   {"run_s_p50", "error_rate"},
	"sweep-trace": {"cells_per_s", "resume_s", "record_s", "query_ms_p50", "query_ms_p99", "scan_events_per_s", "error_rate"},
}

var sweepLayerMetrics = []string{
	"fabric.lease_rpcs", "fabric.report_rpcs", "fabric.lease_ms_p50", "fabric.report_ms_p50",
	"fabric.retries", "fabric.bytes", "fabric.rpc_share",
	"campaign.store_get_us_p50", "campaign.compact_s",
	"probe.events", "probe.onevent_s", "tracelake.write_s", "tracelake.flush_s", "tracelake.bytes_per_event",
	"tracelake.open_s", "tracelake.blocks_pruned", "tracelake.blocks_scanned",
	"tracelake.rows_decoded", "tracelake.match_ratio",
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runToy runs one toy-size invocation and returns the full record and
// the result line.
func runToy(t *testing.T, workload, trace string) (record, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"-toy", "-workload", workload, "-seed", "3", "-seconds", "0.3",
		"-trace", trace, "-workdir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: output too short:\n%s", workload, out.String())
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatalf("record line: %v", err)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return rec, res
}

// TestToyWorkloads runs every workload in both modes at toy size and
// checks that every named metric is printed with its unit and that the
// result line carries exactly BENCHMARK.json's metrics.
func TestToyWorkloads(t *testing.T) {
	spec := loadBenchSpec(t)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			rec, res := runToy(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %q", w, trace, m.Name, got, m.Unit)
				}
			}
			named := workloadMetrics[w]
			if trace == "1" && w == "sweep-trace" {
				named = append(named, sweepLayerMetrics...)
			}
			for _, name := range named {
				m, ok := rec.lookup(name)
				if !ok || m.Unit == "" || m.Samples < 1 {
					t.Errorf("%s trace=%s: record metric %s = %+v", w, trace, name, m)
				}
			}
			for _, k := range []string{"cpu_model", "nproc", "gomaxprocs", "go", "commit"} {
				if rec.Host[k] == "" {
					t.Errorf("%s: record lacks host %s", w, k)
				}
			}
		}
	}
}

// TestBenchmarkJSONNames pins the result-line metric lists to
// BENCHMARK.json.
func TestBenchmarkJSONNames(t *testing.T) {
	spec := loadBenchSpec(t)
	names := func(ms []struct{ Name, Unit string }) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name)
		}
		return strings.Join(s, ",")
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end %s, code prints %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer %s, code prints %s", got, want)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope", "-workdir", t.TempDir()}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

func toyResult(t *testing.T) optsync.Result {
	t.Helper()
	spec := authMeshSpec(true)
	spec.Seed = 5
	res, err := optsync.Run(background, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckRunFires(t *testing.T) {
	res := toyResult(t)
	for name, alter := range map[string]func(*optsync.Result){
		"skew":     func(r *optsync.Result) { r.WithinSkew = false },
		"envelope": func(r *optsync.Result) { r.WithinEnvelope = false },
		"dead run": func(r *optsync.Result) { r.CompleteRounds = 0 },
	} {
		bad := res
		alter(&bad)
		if checkRun(bad) == nil {
			t.Errorf("%s: altered result passed", name)
		}
	}
}

func TestCheckSameRecordFires(t *testing.T) {
	res := toyResult(t)
	if err := checkSameRecord(res, res); err != nil {
		t.Fatal(err)
	}
	sharded := res
	sharded.Spec.Shards = 2
	if err := checkSameRecord(res, sharded); err != nil {
		t.Fatalf("shard count must not count as a difference: %v", err)
	}
	bad := res
	bad.SkewP99 = bad.SkewP99 * (1 + 1e-12)
	if checkSameRecord(res, bad) == nil {
		t.Fatal("altered result record passed")
	}
	v1, err := protocolView(res)
	if err != nil {
		t.Fatal(err)
	}
	traced := res
	traced.Spec.Algo = timedAlgo
	bad.Spec.Algo = timedAlgo
	v2, _ := protocolView(traced)
	v3, _ := protocolView(bad)
	if !bytes.Equal(v1, v2) || bytes.Equal(v1, v3) {
		t.Fatal("protocolView must ignore the spec and see every result field")
	}
}

func TestCheckAggregatesFires(t *testing.T) {
	w := newSweepWorkload(3, true, t.TempDir())
	camp := w.campaign(false)
	a, err := optsync.RunCampaign(background, camp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := optsync.RunCampaign(background, camp)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAggregates(a, b); err != nil {
		t.Fatal(err)
	}
	b.Groups[0].PassRate -= 0.5
	if checkAggregates(a, b) == nil {
		t.Fatal("tampered report passed")
	}
}

func TestLakeChecksFire(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.lake")
	w := newSweepWorkload(3, true, dir)
	res, _, err := w.record(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(path, res); err != nil {
		t.Fatal(err)
	}
	if err := w.checkLakeBytes(path); err != nil {
		t.Fatal(err)
	}
	want, err := referenceCounts(path, w.queries)
	if err != nil {
		t.Fatal(err)
	}
	// The reference filter agrees with the lake's own pushdown.
	lake, err := optsync.OpenLake(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.queries {
		st, err := lake.ScanUnordered(q, func(optsync.Event) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if st.EventsMatched != want[i] {
			t.Errorf("query %d: lake matched %d, reference %d", i, st.EventsMatched, want[i])
		}
	}
	lake.Close()

	bad := res
	bad.TotalMsgs++
	if checkReplay(path, bad) == nil {
		t.Error("replay check passed against an altered result")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if checkReplay(path, res) == nil {
		t.Error("replay check passed on a lake with a flipped byte")
	}
	if w.checkLakeBytes(path) == nil {
		t.Error("lake digest check passed on a lake with a flipped byte")
	}
}

func TestReduceTraces(t *testing.T) {
	listing := `File: e2ebench
Type: cpu
-----------+-------------------------------------------------------
      30ms   crypto/internal/fips140/sha256.blockSHANI
             crypto/hmac.(*hmac).Write
             optsync/internal/sig.(*HMAC).Verify
             optsync/internal/core.(*Auth).Deliver
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             optsync/internal/node.(*Node).Broadcast
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   math/rand.(*rngSource).Seed
             math/rand.NewSource
             optsync/internal/node.NewCluster
-----------+-------------------------------------------------------
      20ms   syscall.Syscall
             net/http.(*persistConn).writeLoop
             optsync/internal/fabric.(*Worker).call
-----------+-------------------------------------------------------
      10ms   optsync/internal/core/bounds.Params.Beta
`
	shares, err := reduceTraces(listing)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range shares {
		got[s.layer] = s.percent
	}
	want := map[string]float64{"sig": 30, "runtime_malloc": 20, "runtime_gc": 10,
		"math_rand": 10, "fabric": 20, "core": 10}
	for layer, p := range want {
		if got[layer] != p {
			t.Errorf("%s: %.1f%%, want %.1f%%", layer, got[layer], p)
		}
	}
	if _, err := reduceTraces("-----------+---\n      xx   main.main\n"); err == nil {
		t.Error("a malformed sample value must fail")
	}
}
