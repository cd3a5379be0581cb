// Package sig provides the signature schemes used by the authenticated
// Srikanth-Toueg algorithm.
//
// The paper treats signatures axiomatically: a correct process's signature
// on a message cannot be produced by anyone else. Two implementations are
// provided:
//
//   - Ed25519: real public-key signatures from crypto/ed25519. Forgery is
//     computationally infeasible, matching the axiom cryptographically.
//   - HMAC: a fast symmetric stand-in where the scheme itself acts as a
//     trusted verification oracle. Within the simulation, Byzantine code can
//     only interact through Sign/Verify, so the unforgeability axiom holds
//     by construction; this trades the cryptographic guarantee for speed,
//     which matters for large parameter sweeps. Its output is standard
//     HMAC-SHA256 (RFC 2104). The key pads are hashed once per signer at
//     construction and their SHA-256 midstates kept, so a call hashes only
//     the message and the inner digest, and Verify allocates nothing. On a
//     2-vCPU Intel Xeon (Go 1.24) HMAC Verify takes ~0.3 us and Sign
//     ~0.36 us, against ~90-110 us and ~40-50 us for Ed25519
//     (BenchmarkVerifyHMAC, BenchmarkVerifyEd25519 and the Sign pair in
//     the root package).
//
// Signer identities are small integers (node indices). Keys are derived
// deterministically from a seed so that simulations are reproducible.
package sig

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// Signature is an opaque signature blob.
type Signature []byte

// Scheme signs and verifies on behalf of a fixed universe of n signers,
// identified by indices 0..n-1.
type Scheme interface {
	// Sign produces signer's signature over payload. It panics if signer
	// is out of range (that is a harness bug, not a runtime condition).
	Sign(signer int, payload []byte) Signature
	// Verify reports whether s is signer's valid signature over payload.
	// Malformed inputs simply verify as false.
	Verify(signer int, payload []byte, s Signature) bool
	// Name identifies the scheme in reports.
	Name() string
}

// deriveSeed expands (seed, signer) into 32 deterministic bytes.
func deriveSeed(seed int64, signer int) [32]byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(signer)))
	return sha256.Sum256(buf[:])
}

// Ed25519 is a real public-key signature scheme over deterministic
// per-signer keys.
type Ed25519 struct {
	privs []ed25519.PrivateKey
	pubs  []ed25519.PublicKey
}

var _ Scheme = (*Ed25519)(nil)

// NewEd25519 derives n key pairs from seed.
func NewEd25519(n int, seed int64) *Ed25519 {
	s := &Ed25519{
		privs: make([]ed25519.PrivateKey, n),
		pubs:  make([]ed25519.PublicKey, n),
	}
	for i := 0; i < n; i++ {
		ks := deriveSeed(seed, i)
		priv := ed25519.NewKeyFromSeed(ks[:])
		s.privs[i] = priv
		s.pubs[i] = priv.Public().(ed25519.PublicKey)
	}
	return s
}

// Sign implements Scheme.
func (s *Ed25519) Sign(signer int, payload []byte) Signature {
	s.check(signer)
	return Signature(ed25519.Sign(s.privs[signer], payload))
}

// Verify implements Scheme.
func (s *Ed25519) Verify(signer int, payload []byte, sg Signature) bool {
	if signer < 0 || signer >= len(s.pubs) || len(sg) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(s.pubs[signer], payload, []byte(sg))
}

// Name implements Scheme.
func (s *Ed25519) Name() string { return "ed25519" }

func (s *Ed25519) check(signer int) {
	if signer < 0 || signer >= len(s.privs) {
		panic(fmt.Sprintf("sig: signer %d out of range [0,%d)", signer, len(s.privs)))
	}
}

// HMAC is a fast symmetric scheme: Sign(i, m) = HMAC-SHA256(key_i, m),
// byte for byte the RFC 2104 construction crypto/hmac computes.
// Because verification recomputes with key_i held by the scheme, the scheme
// is a trusted oracle; within the simulation the unforgeability axiom holds
// because all parties (including Byzantine protocol code) interact only
// through this API.
//
// HMAC(K, m) = H((K^opad) || H((K^ipad) || m)), and the two pad blocks
// depend only on the key. NewHMAC therefore hashes each signer's ipad and
// opad block once and keeps the two SHA-256 midstates; Sign and Verify
// restore them into pooled scratch and hash only the message and the inner
// digest. An HMAC is safe for concurrent use.
type HMAC struct {
	inner, outer [][]byte // per-signer marshaled SHA-256 state after K^ipad / K^opad
}

var _ Scheme = (*HMAC)(nil)

// NewHMAC derives n keys from seed and precomputes their pad midstates.
func NewHMAC(n int, seed int64) *HMAC {
	s := &HMAC{inner: make([][]byte, n), outer: make([][]byte, n)}
	h := sha256.New()
	for i := 0; i < n; i++ {
		k := deriveSeed(seed, i) // shorter than a block: used as-is, zero-padded
		s.inner[i] = padState(h, k[:], 0x36)
		s.outer[i] = padState(h, k[:], 0x5c)
	}
	return s
}

// padState returns the marshaled state of h after absorbing the one-block
// key pad (key zero-extended to the block size, each byte XORed with pad).
func padState(h hash.Hash, key []byte, pad byte) []byte {
	var block [sha256.BlockSize]byte
	for i := range block {
		block[i] = pad
	}
	for i, b := range key {
		block[i] ^= b
	}
	h.Reset()
	h.Write(block[:])
	st, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 always marshals
	}
	return st
}

// macState is a SHA-256 digest whose state can be restored from a
// midstate.
type macState interface {
	hash.Hash
	encoding.BinaryUnmarshaler
}

// macScratch is one Sign or Verify call's working space: a digest to
// restore midstates into and the inner and outer sums.
type macScratch struct {
	h   macState
	sum [2][sha256.Size]byte
}

// macPool lends scratch to concurrent callers (engine shards, rt
// goroutines); scratch carries no key material between uses.
var macPool = sync.Pool{New: func() any {
	return &macScratch{h: sha256.New().(macState)}
}}

// mac computes signer's HMAC over payload into sc and returns a view of
// sc's outer sum, valid until sc is reused.
//
//syncsim:hotpath
func (s *HMAC) mac(sc *macScratch, signer int, payload []byte) []byte {
	restore(sc.h, s.inner[signer])
	sc.h.Write(payload)
	inner := sc.h.Sum(sc.sum[0][:0])
	restore(sc.h, s.outer[signer])
	sc.h.Write(inner)
	return sc.h.Sum(sc.sum[1][:0])
}

func restore(h macState, state []byte) {
	if err := h.UnmarshalBinary(state); err != nil {
		panic(err) // states come from padState, never malformed
	}
}

// Sign implements Scheme. The returned Signature is its only allocation.
func (s *HMAC) Sign(signer int, payload []byte) Signature {
	if signer < 0 || signer >= len(s.inner) {
		panic(fmt.Sprintf("sig: signer %d out of range [0,%d)", signer, len(s.inner)))
	}
	sc := macPool.Get().(*macScratch)
	out := append(Signature(nil), s.mac(sc, signer, payload)...)
	macPool.Put(sc)
	return out
}

// Verify implements Scheme without allocating.
func (s *HMAC) Verify(signer int, payload []byte, sg Signature) bool {
	if signer < 0 || signer >= len(s.inner) || len(sg) != sha256.Size {
		return false
	}
	sc := macPool.Get().(*macScratch)
	ok := hmac.Equal(s.mac(sc, signer, payload), sg)
	macPool.Put(sc)
	return ok
}

// Name implements Scheme.
func (s *HMAC) Name() string { return "hmac-sha256" }
