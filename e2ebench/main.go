// Command e2ebench is optsync's end-to-end benchmark. It drives the
// public optsync API the way users do — single runs, a campaign served
// over the fabric, a recorded trace lake that is then queried — in one
// closed-loop process whose inputs all derive from one workload seed.
//
//	e2ebench -workload auth-mesh -seed 1 -seconds 20 -trace 0
//
// With -trace 0 every number comes from untraced operations and the last
// output line carries the end-to-end metrics. With -trace 1 the same
// operations also run through timing wrappers at each layer boundary
// (protocol callbacks, the protocol's Env, the fabric transport, the
// lake probe, the store and lake calls) under a CPU profile, and the
// last line carries the per-layer metrics. Every operation's output is
// checked; a failed check or an error counts in "failed".
//
// The lines before the last one are the full record: host, build,
// every metric with its unit and sample count, and every check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart approximates the process start for setup_s: package
// variables initialize before main runs.
var processStart = time.Now()

// Build identity, set with -ldflags -X by run.sh.
var (
	commit       = "unknown"
	sourceDigest = "unknown"
)

// endToEnd and perLayer are the metric names of the last output line,
// in the order BENCHMARK.json lists them. Every workload reports every
// one of them.
var endToEnd = []string{"setup_s", "cpu_s_p50", "peak_rss_mb"}

var perLayer = []string{
	"sig.sign_calls", "sig.sign_s", "sig.verify_calls", "sig.verify_s",
	"sig.verify_rejects", "sig.verify_repeat_ratio",
	"core.deliver_calls", "core.timer_fires", "core.self_s",
	"sim.timer_arms", "sim.timer_cancels", "sim.timer_s", "sim.residual_s",
	"network.broadcast_calls", "network.send_calls", "network.send_s",
	"network.msgs", "network.delivered", "network.dropped",
	"harness.skew_samples", "harness.skew_quantile_inversions",
	"cpu_share.sig", "cpu_share.core", "cpu_share.node", "cpu_share.network",
	"cpu_share.sim", "cpu_share.clock", "cpu_share.metrics", "cpu_share.harness",
	"cpu_share.adversary", "cpu_share.probe", "cpu_share.tracelake",
	"cpu_share.campaign", "cpu_share.fabric", "cpu_share.math_rand",
	"cpu_share.runtime_gc", "cpu_share.runtime_malloc",
	"trace.untraced_op_s", "trace.traced_op_s", "trace.overhead_s",
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 3

// workload is one named benchmark scenario. prepare sets it up (fresh
// inputs and scratch space, plus one warm-up operation); op runs one
// closed-loop operation, checks its output and records its samples;
// checkOnce runs the untimed once-per-invocation checks; report adds the
// workload's metrics.
type workload interface {
	prepare() error
	op(traced bool) error
	checkOnce() error
	report(r *record, traced bool)
	// opSeconds are the latencies of the untraced or the traced ops.
	opSeconds(traced bool) []float64
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool
	dir      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.BoolVar(&cfg.toy, "toy", false, "shrink every workload to toy size (tests)")
	fs.StringVar(&cfg.dir, "workdir", filepath.Join(".bench_build", "e2ebench", "work"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "e2ebench: -trace must be 0 or 1, not %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be positive")
		return 2
	}
	rec, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := rec.print(stdout); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	return []string{"auth-mesh", "ring-4096", "sweep-trace"}
}

func newWorkload(cfg config, dir string) (workload, error) {
	switch cfg.workload {
	case "auth-mesh":
		return newRunWorkload(authMeshSpec(cfg.toy), cfg.seed), nil
	case "ring-4096":
		return newRunWorkload(ringSpec(cfg.toy), cfg.seed), nil
	case "sweep-trace":
		return newSweepWorkload(cfg.seed, cfg.toy, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

// execute sets the workload up, measures it for cfg.seconds, runs the
// once-per-invocation checks and returns the record. A setup failure is
// an error (no result is printed); failures during measurement are
// counted in the record.
func execute(cfg config, log io.Writer) (*record, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(cfg, dir)
	if err != nil {
		return nil, err
	}
	rec := newRecord(cfg)

	// Set up several times; the first includes process start.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := w.prepare(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rec.add("setup_s", median(setups), "s", len(setups))

	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	if cfg.trace {
		// Untraced and traced ops alternate, so both see the same
		// machine; only the traced ones run under the CPU profile.
		prof := &profiler{dir: dir}
		for n := 0; n == 0 || time.Since(start) < budget; n++ {
			runOp(w, false, rec, log)
			if err := prof.start(); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			runOp(w, true, rec, log)
			if err := prof.stop(); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		shares, err := prof.shares()
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		for _, s := range shares {
			rec.add("cpu_share."+s.layer, s.percent, "%", s.samples)
		}
		un, tr := w.opSeconds(false), w.opSeconds(true)
		rec.add("trace.untraced_op_s", median(un), "s", len(un))
		rec.add("trace.traced_op_s", median(tr), "s", len(tr))
		rec.add("trace.overhead_s", median(tr)-median(un), "s", len(tr))
	} else {
		for n := 0; n == 0 || time.Since(start) < budget; n++ {
			runOp(w, false, rec, log)
		}
	}
	w.report(rec, cfg.trace)
	rec.add("cpu_s_p50", median(rec.opCPU), "s", len(rec.opCPU))

	rec.attempted++
	if err := w.checkOnce(); err != nil {
		rec.fail("once-per-invocation check", err, log)
	}
	rec.add("peak_rss_mb", peakRSSMB(), "MB", 1)
	rec.add("error_rate", float64(rec.failed)/float64(rec.attempted), "ratio", rec.attempted)
	return rec, nil
}

// runOp runs one closed-loop op, counts it, and records the process
// CPU time of untraced ops.
func runOp(w workload, traced bool, rec *record, log io.Writer) {
	rec.attempted++
	c0 := cpuSeconds()
	if err := w.op(traced); err != nil {
		rec.fail("op", err, log)
		return
	}
	if !traced {
		rec.opCPU = append(rec.opCPU, cpuSeconds()-c0)
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's CPU time so far, user plus system, all
// threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is everything one invocation reports.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Toy       bool              `json:"toy,omitempty"`
	Host      map[string]string `json:"host"`
	Metrics   []metric          `json:"metrics"`
	checks    []string
	notes     []string
	errors    []string
	attempted int
	failed    int
	opCPU     []float64 // CPU seconds of each untraced op
}

func newRecord(cfg config) *record {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Toy: cfg.toy,
		Host: map[string]string{
			"cpu_model":     cpu,
			"nproc":         fmt.Sprint(runtime.NumCPU()),
			"gomaxprocs":    fmt.Sprint(runtime.GOMAXPROCS(0)),
			"go":            runtime.Version(),
			"commit":        commit,
			"source_digest": sourceDigest,
		},
	}
}

func (r *record) add(name string, v float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

func (r *record) fail(what string, err error, log io.Writer) {
	r.failed++
	msg := fmt.Sprintf("%s: %v", what, err)
	if len(r.errors) < 10 {
		r.errors = append(r.errors, msg)
	}
	fmt.Fprintf(log, "e2ebench: FAILED %s\n", msg)
}

func (r *record) lookup(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// result is the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the full record as a readable table plus one JSON line,
// then the result line.
func (r *record) print(w io.Writer) error {
	names := endToEnd
	if r.Trace {
		names = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, name := range names {
		m, ok := r.lookup(name)
		if !ok {
			return fmt.Errorf("workload %s did not report %s", r.Workload, name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		res.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	res.Correct = r.failed == 0

	var b strings.Builder
	fmt.Fprintf(&b, "e2ebench workload=%s seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	keys := make([]string, 0, len(r.Host))
	for k := range r.Host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-14s %s\n", k, r.Host[k])
	}
	fmt.Fprintf(&b, "  %-40s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "  %-40s %16.6g  %-8s %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, c := range r.checks {
		fmt.Fprintf(&b, "  check: %s\n", c)
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	for _, e := range r.errors {
		fmt.Fprintf(&b, "  FAILED: %s\n", e)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "%s\n%s\n", full, last)
	_, err = io.WriteString(w, b.String())
	return err
}

// median returns the middle of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// background is the context every operation runs under: the benchmark
// is a closed loop bounded by its own clock, never cancelled.
var background = context.Background()
