package main

import (
	"bytes"
	"hash/maphash"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"optsync"
)

// timedAlgo is the traced twin of st-auth: a registered protocol that
// builds the real one with optsync.NewProtocol and hands it an Env whose
// calls are timed and counted. Results are identical to st-auth's except
// for Spec.Algo.
const timedAlgo optsync.Algorithm = "e2ebench-timed-st-auth"

func init() {
	optsync.RegisterProtocol(timedAlgo, func(spec optsync.Spec) (optsync.Protocol, error) {
		spec.Algo = optsync.AlgoAuth
		inner, err := optsync.NewProtocol(spec)
		if err != nil {
			return nil, err
		}
		p := &timedProto{inner: inner, seen: map[uint64]struct{}{}}
		nodeTracer.add(p)
		return p, nil
	}, optsync.WithEnvelope(func(spec optsync.Spec, span float64) (float64, float64) {
		// st-auth's envelope.
		return spec.Params.EnvelopeRateBoundsOver(span)
	}))
}

// tracer collects the timed protocol instances built since the last
// take. Builders run at cluster construction (concurrently for campaign
// cells); the counters themselves are per node and need no lock.
type tracer struct {
	mu    sync.Mutex
	nodes []*timedProto
}

// nodeTracer is the registration table the timedAlgo builder fills.
var nodeTracer tracer

func (t *tracer) add(p *timedProto) {
	t.mu.Lock()
	t.nodes = append(t.nodes, p)
	t.mu.Unlock()
}

func (t *tracer) take() []*timedProto {
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := t.nodes
	t.nodes = nil
	return nodes
}

// layerCounts are one node's per-layer counters. Times are nanoseconds.
type layerCounts struct {
	SignCalls, VerifyCalls, VerifyRejects, VerifyRepeats uint64
	SignNs, VerifyNs                                     int64
	DeliverCalls, TimerFires                             uint64
	// CallbackNs is protocol callback time (Start, Deliver, timer
	// callbacks); EnvNs is the Env-call time inside it, wrapper
	// bookkeeping included.
	CallbackNs, EnvNs       int64
	TimerArms, TimerCancels uint64
	TimerNs                 int64
	BroadcastCalls          uint64
	SendCalls               uint64
	SendNs                  int64
}

func (c *layerCounts) add(o *layerCounts) {
	c.SignCalls += o.SignCalls
	c.VerifyCalls += o.VerifyCalls
	c.VerifyRejects += o.VerifyRejects
	c.VerifyRepeats += o.VerifyRepeats
	c.SignNs += o.SignNs
	c.VerifyNs += o.VerifyNs
	c.DeliverCalls += o.DeliverCalls
	c.TimerFires += o.TimerFires
	c.CallbackNs += o.CallbackNs
	c.EnvNs += o.EnvNs
	c.TimerArms += o.TimerArms
	c.TimerCancels += o.TimerCancels
	c.TimerNs += o.TimerNs
	c.BroadcastCalls += o.BroadcastCalls
	c.SendCalls += o.SendCalls
	c.SendNs += o.SendNs
}

// timedProto wraps one correct node's protocol.
type timedProto struct {
	inner optsync.Protocol
	raw   optsync.Env // the node's Env
	env   optsync.Env // raw behind the timing wrapper
	// seen holds the (signer, payload) pairs this node verified
	// successfully, for sig.verify_repeat_ratio.
	seen map[uint64]struct{}
	c    layerCounts
}

var pairSeed = maphash.MakeSeed()

func (p *timedProto) bind(env optsync.Env) optsync.Env {
	if env != p.raw {
		p.raw = env
		p.env = wrapEnv(p, env, env.Sign, env.Verify, env.AtLogical, env.Cancel)
	}
	return p.env
}

func (p *timedProto) Start(env optsync.Env) {
	e := p.bind(env)
	t0 := time.Now()
	p.inner.Start(e)
	p.c.CallbackNs += int64(time.Since(t0))
}

func (p *timedProto) Deliver(env optsync.Env, from optsync.ID, msg optsync.Message) {
	e := p.bind(env)
	p.c.DeliverCalls++
	t0 := time.Now()
	p.inner.Deliver(e, from, msg)
	p.c.CallbackNs += int64(time.Since(t0))
}

// timedEnv times the Env calls a protocol makes. S and T are the Env's
// signature and timer types, inferred from the wrapped Env's methods by
// wrapEnv, so the wrapper needs no access to the packages defining them.
type timedEnv[S, T any] struct {
	optsync.Env
	p      *timedProto
	sign   func([]byte) S
	verify func(optsync.ID, []byte, S) bool
	at     func(float64, func()) T
	cancel func(T)
}

// wrapEnv returns env behind the timing wrapper. The wrapper's method
// set matches optsync.Env only once S and T are instantiated, hence the
// dynamic conversion.
func wrapEnv[S, T any](p *timedProto, env optsync.Env, sign func([]byte) S,
	verify func(optsync.ID, []byte, S) bool, at func(float64, func()) T, cancel func(T)) optsync.Env {
	var e any = &timedEnv[S, T]{Env: env, p: p, sign: sign, verify: verify, at: at, cancel: cancel}
	return e.(optsync.Env)
}

func (e *timedEnv[S, T]) Sign(payload []byte) S {
	t0 := time.Now()
	s := e.sign(payload)
	d := int64(time.Since(t0))
	c := &e.p.c
	c.SignCalls++
	c.SignNs += d
	c.EnvNs += d
	return s
}

func (e *timedEnv[S, T]) Verify(signer optsync.ID, payload []byte, s S) bool {
	t0 := time.Now()
	ok := e.verify(signer, payload, s)
	t1 := time.Now()
	c := &e.p.c
	c.VerifyCalls++
	c.VerifyNs += int64(t1.Sub(t0))
	if !ok {
		c.VerifyRejects++
	} else {
		key := maphash.Bytes(pairSeed, payload) ^ uint64(signer)*0x9e3779b97f4a7c15
		if _, dup := e.p.seen[key]; dup {
			c.VerifyRepeats++
		} else {
			e.p.seen[key] = struct{}{}
		}
	}
	c.EnvNs += int64(time.Since(t0))
	return ok
}

func (e *timedEnv[S, T]) AtLogical(value float64, fn func()) T {
	t0 := time.Now()
	c := &e.p.c
	timer := e.at(value, func() {
		c.TimerFires++
		s := time.Now()
		fn()
		c.CallbackNs += int64(time.Since(s))
	})
	d := int64(time.Since(t0))
	c.TimerArms++
	c.TimerNs += d
	c.EnvNs += d
	return timer
}

func (e *timedEnv[S, T]) Cancel(timer T) {
	t0 := time.Now()
	e.cancel(timer)
	d := int64(time.Since(t0))
	c := &e.p.c
	c.TimerCancels++
	c.TimerNs += d
	c.EnvNs += d
}

func (e *timedEnv[S, T]) Broadcast(msg optsync.Message) {
	t0 := time.Now()
	e.Env.Broadcast(msg)
	d := int64(time.Since(t0))
	c := &e.p.c
	c.BroadcastCalls++
	c.SendNs += d
	c.EnvNs += d
}

func (e *timedEnv[S, T]) Send(to optsync.ID, msg optsync.Message) {
	t0 := time.Now()
	e.Env.Send(to, msg)
	d := int64(time.Since(t0))
	c := &e.p.c
	c.SendCalls++
	c.SendNs += d
	c.EnvNs += d
}

// layerTotals folds traced runs.
type layerTotals struct {
	c layerCounts
	// residualS is run wall time times engine workers, minus protocol
	// callback time: engine, delivery, harness build and collection.
	residualS float64
}

// addNodes folds traced nodes and returns their callback time.
func (t *layerTotals) addNodes(nodes []*timedProto) (callbackNs int64) {
	for _, p := range nodes {
		t.c.add(&p.c)
		callbackNs += p.c.CallbackNs
	}
	return callbackNs
}

// addResidual accounts one traced run that took wall seconds on workers
// engine workers, callbackNs of it in protocol callbacks.
func (t *layerTotals) addResidual(wall float64, workers int, callbackNs int64) {
	t.residualS += wall*float64(workers) - float64(callbackNs)/1e9
}

// report adds the protocol-side per-layer metrics, per op.
func (t *layerTotals) report(r *record, ops int) {
	per := func(v float64) float64 { return v / float64(ops) }
	sec := func(ns int64) float64 { return per(float64(ns) / 1e9) }
	c := &t.c
	r.add("sig.sign_calls", per(float64(c.SignCalls)), "count/op", ops)
	r.add("sig.sign_s", sec(c.SignNs), "s/op", ops)
	r.add("sig.verify_calls", per(float64(c.VerifyCalls)), "count/op", ops)
	r.add("sig.verify_s", sec(c.VerifyNs), "s/op", ops)
	r.add("sig.verify_rejects", per(float64(c.VerifyRejects)), "count/op", ops)
	repeat := 0.0
	if c.VerifyCalls > 0 {
		repeat = float64(c.VerifyRepeats) / float64(c.VerifyCalls)
	}
	r.add("sig.verify_repeat_ratio", repeat, "ratio", ops)
	r.add("core.deliver_calls", per(float64(c.DeliverCalls)), "count/op", ops)
	r.add("core.timer_fires", per(float64(c.TimerFires)), "count/op", ops)
	r.add("core.self_s", sec(c.CallbackNs-c.EnvNs), "s/op", ops)
	r.add("sim.timer_arms", per(float64(c.TimerArms)), "count/op", ops)
	r.add("sim.timer_cancels", per(float64(c.TimerCancels)), "count/op", ops)
	r.add("sim.timer_s", sec(c.TimerNs), "s/op", ops)
	r.add("sim.residual_s", per(t.residualS), "s/op", ops)
	r.add("network.broadcast_calls", per(float64(c.BroadcastCalls)), "count/op", ops)
	r.add("network.send_calls", per(float64(c.SendCalls)), "count/op", ops)
	r.add("network.send_s", sec(c.SendNs), "s/op", ops)
}

// rpcTimer is an http.RoundTripper timing each fabric call, body read
// included.
type rpcTimer struct {
	base http.RoundTripper

	mu             sync.Mutex
	lease, reports []float64 // milliseconds
	bytes          int64
	totalS         float64
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := float64(d) / 1e6
	switch {
	case strings.HasSuffix(req.URL.Path, "/lease"):
		t.lease = append(t.lease, ms)
	case strings.HasSuffix(req.URL.Path, "/report"):
		t.reports = append(t.reports, ms)
	}
	t.totalS += d.Seconds()
	t.bytes += int64(len(body))
	if req.ContentLength > 0 {
		t.bytes += req.ContentLength
	}
	return resp, nil
}

// lakeProbe times the lake writer's event intake.
type lakeProbe struct {
	w      *optsync.LakeWriter
	events uint64
	ns     int64
}

func (p *lakeProbe) OnEvent(ev optsync.Event) {
	t0 := time.Now()
	p.w.OnEvent(ev)
	p.ns += int64(time.Since(t0))
	p.events++
}

// timedWriter times the writes under the lake writer.
type timedWriter struct {
	w  io.Writer
	ns int64
	n  int64
}

func (t *timedWriter) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(b)
	t.ns += int64(time.Since(t0))
	t.n += int64(n)
	return n, err
}
