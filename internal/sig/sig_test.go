package sig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"optsync/internal/race"
)

func schemes(n int, seed int64) map[string]Scheme {
	return map[string]Scheme{
		"ed25519": NewEd25519(n, seed),
		"hmac":    NewHMAC(n, seed),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("round 7")
			for i := 0; i < 4; i++ {
				sg := s.Sign(i, msg)
				if !s.Verify(i, msg, sg) {
					t.Fatalf("signer %d: valid signature rejected", i)
				}
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("round 7")
			sg := s.Sign(0, msg)
			for i := 1; i < 4; i++ {
				if s.Verify(i, msg, sg) {
					t.Fatalf("signature by 0 verified for signer %d", i)
				}
			}
		})
	}
}

func TestVerifyRejectsTamperedPayload(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			sg := s.Sign(2, []byte("round 7"))
			if s.Verify(2, []byte("round 8"), sg) {
				t.Fatal("tampered payload verified")
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("round 7")
			sg := s.Sign(2, msg)
			bad := append(Signature(nil), sg...)
			bad[0] ^= 0xFF
			if s.Verify(2, msg, bad) {
				t.Fatal("tampered signature verified")
			}
		})
	}
}

func TestVerifyRejectsGarbage(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			if s.Verify(0, []byte("m"), nil) {
				t.Fatal("nil signature verified")
			}
			if s.Verify(0, []byte("m"), Signature("short")) {
				t.Fatal("short signature verified")
			}
			if s.Verify(-1, []byte("m"), Signature(make([]byte, 64))) {
				t.Fatal("negative signer verified")
			}
			if s.Verify(99, []byte("m"), Signature(make([]byte, 64))) {
				t.Fatal("out-of-range signer verified")
			}
		})
	}
}

func TestSignOutOfRangePanics(t *testing.T) {
	for name, s := range schemes(3, 1) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Sign(5) did not panic")
				}
			}()
			s.Sign(5, []byte("m"))
		})
	}
}

func TestDeterministicKeys(t *testing.T) {
	a := NewEd25519(3, 99)
	b := NewEd25519(3, 99)
	msg := []byte("hello")
	if !bytes.Equal(a.Sign(1, msg), b.Sign(1, msg)) {
		t.Fatal("same seed produced different ed25519 signatures")
	}
	c := NewEd25519(3, 100)
	if bytes.Equal(a.Sign(1, msg), c.Sign(1, msg)) {
		t.Fatal("different seeds produced identical ed25519 signatures")
	}
}

func TestCrossSchemeRejection(t *testing.T) {
	ed := NewEd25519(3, 1)
	hm := NewHMAC(3, 1)
	msg := []byte("m")
	if hm.Verify(0, msg, ed.Sign(0, msg)) {
		t.Fatal("hmac verified an ed25519 signature")
	}
	if ed.Verify(0, msg, hm.Sign(0, msg)) {
		t.Fatal("ed25519 verified an hmac signature")
	}
}

// Property: no signer's signature over one payload verifies for any other
// (signer, payload) pair.
func TestNoCrossVerifyProperty(t *testing.T) {
	s := NewHMAC(4, 7)
	f := func(p1, p2 []byte, a, b uint8) bool {
		sa, sb := int(a%4), int(b%4)
		sg := s.Sign(sa, p1)
		if sa == sb && bytes.Equal(p1, p2) {
			return s.Verify(sb, p2, sg)
		}
		return !s.Verify(sb, p2, sg)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// HMAC's precomputed midstates must reproduce crypto/hmac byte for byte
// for every signer, across the SHA-256 padding boundaries (55/56 bytes
// left in the final block, whole blocks at 64 and 120).
func TestHMACMatchesCryptoHMAC(t *testing.T) {
	const n = 8
	lengths := []int{0, 1, 25, 55, 56, 63, 64, 65, 119, 120, 200}
	for _, seed := range []int64{1, 99} {
		s := NewHMAC(n, seed)
		for _, l := range lengths {
			payload := make([]byte, l)
			for i := range payload {
				payload[i] = byte(i*7 + l)
			}
			for signer := 0; signer < n; signer++ {
				key := deriveSeed(seed, signer)
				ref := hmac.New(sha256.New, key[:])
				ref.Write(payload)
				want := ref.Sum(nil)
				got := s.Sign(signer, payload)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d len %d signer %d: Sign = %x, crypto/hmac = %x", seed, l, signer, got, want)
				}
				if !s.Verify(signer, payload, want) {
					t.Fatalf("seed %d len %d signer %d: crypto/hmac tag rejected", seed, l, signer)
				}
			}
		}
	}
}

// One shared HMAC serves concurrent signers and verifiers (engine shards,
// rt goroutines); run under -race this checks the pooled scratch.
func TestHMACConcurrentUse(t *testing.T) {
	const n, workers, iters = 8, 8, 500
	s := NewHMAC(n, 3)
	want := make([]Signature, n)
	for i := range want {
		want[i] = s.Sign(i, []byte("round 1"))
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				signer := (w + i) % n
				if !bytes.Equal(s.Sign(signer, []byte("round 1")), want[signer]) {
					errs <- "Sign differs under concurrency"
					return
				}
				if !s.Verify(signer, []byte("round 1"), want[signer]) ||
					s.Verify((signer+1)%n, []byte("round 1"), want[signer]) {
					errs <- "Verify wrong under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Verify allocates nothing; Sign allocates only the returned Signature.
func TestHMACAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race, so pooled scratch reallocates")
	}
	s := NewHMAC(4, 1)
	payload := []byte("optsync/st/round/0000000000000001")
	sg := s.Sign(1, payload)
	if a := testing.AllocsPerRun(100, func() {
		if !s.Verify(1, payload, sg) {
			t.Fatal("verify failed")
		}
	}); a != 0 {
		t.Fatalf("HMAC.Verify allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { s.Sign(1, payload) }); a != 1 {
		t.Fatalf("HMAC.Sign allocates %v per call, want 1", a)
	}
}
