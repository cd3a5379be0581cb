package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// shareLayers are the layers cpu_share.* reports, in output order.
var shareLayers = []string{
	"sig", "core", "node", "network", "sim", "clock", "metrics", "harness",
	"adversary", "probe", "tracelake", "campaign", "fabric", "math_rand",
	"runtime_gc", "runtime_malloc",
}

type layerShare struct {
	layer   string
	percent float64
	samples int
}

// profiler profiles selected stretches of the run, one file each.
type profiler struct {
	dir   string
	files []string
	f     *os.File
}

func (p *profiler) start() error {
	path := filepath.Join(p.dir, fmt.Sprintf("cpu-%d.pprof", len(p.files)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.files = append(p.files, path)
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// shares merges the profiles with `go tool pprof -traces` and reduces
// them to the share of samples per layer.
func (p *profiler) shares() ([]layerShare, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, p.files...)...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	return reduceTraces(out.String())
}

// reduceTraces charges each sample of a `pprof -traces` listing to one
// layer and returns every shareLayers entry's share of all samples.
func reduceTraces(listing string) ([]layerShare, error) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	flush := func(v time.Duration, stack []string) {
		if len(stack) == 0 {
			return
		}
		byLayer[classify(stack)] += v
		total += v
	}
	var (
		value time.Duration
		stack []string
	)
	sc := bufio.NewScanner(strings.NewReader(listing))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush(value, stack)
			value, stack, started = 0, stack[:0], true
			continue
		}
		if !started || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q", fields[0])
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush(value, stack)
	out := make([]layerShare, len(shareLayers))
	for i, l := range shareLayers {
		// runtime/pprof samples at 100 Hz: one sample per 10 ms.
		out[i] = layerShare{layer: l, samples: int(byLayer[l] / (10 * time.Millisecond))}
		if total > 0 { // ops too short to be sampled report no share
			out[i].percent = 100 * float64(byLayer[l]) / float64(total)
		}
	}
	return out, nil
}

// classify names the layer a sample (leaf first) is charged to: garbage
// collection and allocation first, whoever called them; then the
// innermost frame in math/rand or in an optsync package. Standard
// library frames (crypto, net/http) are charged to the optsync package
// that called them.
func classify(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), fn == "runtime.bgsweep",
			fn == "runtime.bgscavenge", fn == "runtime.markroot", fn == "runtime.scanobject":
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return "runtime_malloc"
		}
	}
	for _, fn := range stack {
		switch pkg := funcPackage(fn); {
		case pkg == "math/rand":
			return "math_rand"
		case strings.HasPrefix(pkg, "optsync/internal/"):
			return strings.SplitN(strings.TrimPrefix(pkg, "optsync/internal/"), "/", 2)[0]
		case pkg == "optsync":
			return "api"
		case pkg == "main":
			return "bench"
		}
	}
	return "other"
}

// funcPackage returns the import path of a pprof function name
// ("optsync/internal/sig.(*HMAC).Verify" -> "optsync/internal/sig").
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
