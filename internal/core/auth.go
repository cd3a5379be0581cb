package core

import (
	"cmp"
	"slices"

	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/sig"
)

// Message kinds of the two ST algorithms (see prim.go for ready).
var (
	// KindRound carries round-k evidence: envelope.Round is k and the
	// payload is a []SignedEntry over roundPayload(k). f+1 valid distinct
	// signatures prove that at least one correct process's clock reached
	// k*P.
	KindRound = network.NewKind("st/round")
	// KindAwake carries cold-start liveness evidence: a []SignedEntry
	// over the awake payload by distinct processes.
	KindAwake = network.NewKind("st/awake")
)

// SignedEntry is one signer's signature over the round payload.
type SignedEntry struct {
	Signer node.ID
	Sig    sig.Signature
}

// RoundMessage assembles a round-k evidence envelope.
func RoundMessage(round int, sigs []SignedEntry) node.Message {
	return node.Message{Kind: KindRound, Round: round, Payload: sigs}
}

// AwakeMessage assembles a cold-start liveness envelope.
func AwakeMessage(sigs []SignedEntry) node.Message {
	return node.Message{Kind: KindAwake, Payload: sigs}
}

// AuthProtocol is the authenticated algorithm (paper Section 3).
//
// Behaviour of a correct process v:
//
//	when C_v = k*P:                sign "round k", broadcast all evidence
//	                               collected for k (at least the own
//	                               signature)
//	on f+1 distinct valid sigs
//	for round k > last accepted:   accept: C_v := k*P + alpha, relay the
//	                               full signature set, start waiting for
//	                               round k+1
//
// Signatures are produced only when the signer's own clock reaches k*P;
// relays forward other processes' signatures without adding one, so a
// signature by a correct process always witnesses "my clock read k*P".
type AuthProtocol struct {
	cfg Config

	lastAccepted int
	lastSigned   int
	evidence     map[int]map[node.ID]sig.Signature
	timer        node.Timer

	// payload is roundPayload(payloadRound), kept across deliveries so
	// that only a change of round builds a new one.
	payloadRound int
	payload      []byte

	// Cold-start state (Config.ColdStart).
	awake        map[node.ID]sig.Signature
	synchronized bool

	// OnAccept, if set, observes each acceptance (round, logical target).
	OnAccept func(round int)
	// OnSynchronized, if set, observes cold-start completion.
	OnSynchronized func()
}

var _ node.Protocol = (*AuthProtocol)(nil)

// NewAuth constructs the protocol; cfg.Period must be positive and
// cfg.Alpha within [0, Period).
func NewAuth(cfg Config) *AuthProtocol {
	cfg = cfg.withDefaults()
	cfg.validate()
	return &AuthProtocol{
		cfg:      cfg,
		evidence: make(map[int]map[node.ID]sig.Signature),
		awake:    make(map[node.ID]sig.Signature),
	}
}

// Synchronized reports whether the process has established
// synchronization (always true once running without ColdStart).
func (p *AuthProtocol) Synchronized() bool { return p.synchronized }

// LastAccepted returns the highest accepted round (0 before the first).
func (p *AuthProtocol) LastAccepted() int { return p.lastAccepted }

// Start implements node.Protocol.
func (p *AuthProtocol) Start(env node.Env) {
	if p.cfg.ColdStart {
		// Announce liveness; the round schedule begins once f+1 distinct
		// processes are provably up (or once any round is accepted, for
		// processes that boot into a running system).
		p.awake[env.ID()] = env.Sign(awakePayload())
		env.Broadcast(AwakeMessage(awakeEntries(p.awake)))
		p.maybeSynchronize(env)
		return
	}
	p.synchronized = true
	p.armTimer(env)
}

// Deliver implements node.Protocol.
func (p *AuthProtocol) Deliver(env node.Env, _ node.ID, msg node.Message) {
	switch msg.Kind {
	case KindAwake:
		sigs, _ := msg.Payload.([]SignedEntry)
		p.deliverAwake(env, sigs)
		return
	case KindRound:
	default:
		return // foreign or malformed traffic is ignored
	}
	round := msg.Round
	sigs, ok := msg.Payload.([]SignedEntry)
	if !ok {
		return
	}
	if round <= p.lastAccepted || round > p.lastAccepted+p.cfg.MaxRoundAhead {
		return
	}
	payload := p.payloadFor(round)
	set := p.evidence[round]
	if set == nil {
		set = make(map[node.ID]sig.Signature, env.F()+1)
		p.evidence[round] = set
	}
	for _, e := range sigs {
		if _, dup := set[e.Signer]; dup {
			continue
		}
		if !env.Verify(e.Signer, payload, e.Sig) {
			continue // forged or corrupted entries contribute nothing
		}
		set[e.Signer] = e.Sig
	}
	p.maybeAccept(env, round)
}

// payloadFor returns roundPayload(k), rebuilding it only when k differs
// from the last round asked for. The returned slice is never written.
func (p *AuthProtocol) payloadFor(k int) []byte {
	if p.payload == nil || p.payloadRound != k {
		p.payload, p.payloadRound = roundPayload(k), k
	}
	return p.payload
}

// armTimer schedules the next "sign round k" action at C = k*P for the
// first round not yet signed or accepted. Must be called after every clock
// adjustment, since pending logical timers assume no jumps.
func (p *AuthProtocol) armTimer(env node.Env) {
	env.Cancel(p.timer)
	next := p.lastSigned + 1
	if next <= p.lastAccepted {
		next = p.lastAccepted + 1
	}
	p.timer = env.AtLogical(p.cfg.roundDue(next), func() {
		p.signAndBroadcast(env, next)
	})
}

// signAndBroadcast runs when the local clock reads k*P.
func (p *AuthProtocol) signAndBroadcast(env node.Env, k int) {
	if k <= p.lastSigned || k <= p.lastAccepted {
		p.armTimer(env)
		return
	}
	p.lastSigned = k
	set := p.evidence[k]
	if set == nil {
		set = make(map[node.ID]sig.Signature, env.F()+1)
		p.evidence[k] = set
	}
	set[env.ID()] = env.Sign(p.payloadFor(k))
	env.Broadcast(RoundMessage(k, entries(set)))
	// Own signature may complete the quorum (e.g. f=0, or evidence
	// arrived before our clock was due).
	p.maybeAccept(env, k)
	if p.lastAccepted < k {
		p.armTimer(env)
	}
}

// maybeAccept checks the f+1 quorum for round k and performs the
// resynchronization step.
func (p *AuthProtocol) maybeAccept(env node.Env, k int) {
	set := p.evidence[k]
	if len(set) < env.F()+1 || k <= p.lastAccepted {
		return
	}
	p.lastAccepted = k
	if p.lastSigned < k {
		p.lastSigned = k // the round is over; never sign it late
	}
	p.synchronized = true // a late booter integrates via its first round
	env.SetLogical(p.cfg.roundTarget(k))
	env.Pulse(k)
	if !p.cfg.DisableRelay {
		// Relay the complete evidence so every correct process accepts
		// within one message delay (the relay property).
		env.Broadcast(RoundMessage(k, entries(set)))
	}
	for r := range p.evidence {
		if r <= k {
			delete(p.evidence, r)
		}
	}
	if p.OnAccept != nil {
		p.OnAccept(k)
	}
	p.armTimer(env)
}

func awakeEntries(set map[node.ID]sig.Signature) []SignedEntry {
	return entries(set)
}

// deliverAwake merges awake evidence; on an f+1 quorum the process adopts
// logical time Alpha and starts the round schedule.
func (p *AuthProtocol) deliverAwake(env node.Env, sigs []SignedEntry) {
	if !p.cfg.ColdStart || p.synchronized {
		return
	}
	payload := awakePayload()
	for _, e := range sigs {
		if _, dup := p.awake[e.Signer]; dup {
			continue
		}
		if !env.Verify(e.Signer, payload, e.Sig) {
			continue
		}
		p.awake[e.Signer] = e.Sig
	}
	p.maybeSynchronize(env)
}

func (p *AuthProtocol) maybeSynchronize(env node.Env) {
	if p.synchronized || len(p.awake) < env.F()+1 {
		return
	}
	p.synchronized = true
	// Adopt a common epoch: logical time Alpha (one propagation delay
	// after the "first correct process is up" instant, mirroring the
	// round adjustment). Relay the quorum so everyone starts within one
	// message delay.
	env.SetLogical(p.cfg.Alpha)
	env.Broadcast(AwakeMessage(awakeEntries(p.awake)))
	if p.OnSynchronized != nil {
		p.OnSynchronized()
	}
	p.armTimer(env)
}

// entries flattens an evidence set deterministically (sorted by signer) so
// runs are reproducible byte-for-byte.
func entries(set map[node.ID]sig.Signature) []SignedEntry {
	out := make([]SignedEntry, 0, len(set))
	for id, s := range set {
		out = append(out, SignedEntry{Signer: id, Sig: s})
	}
	slices.SortFunc(out, func(a, b SignedEntry) int { return cmp.Compare(a.Signer, b.Signer) })
	return out
}
