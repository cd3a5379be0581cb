package tracelake

import (
	"bytes"
	"encoding/binary"
	"testing"

	"optsync/internal/probe"
)

// FuzzOpenBytes feeds arbitrary bytes to the in-memory open path (the
// zero-copy decoder, the one with the fewest copies between untrusted
// bytes and the codecs). Whatever the input, OpenBytes must either fail
// or yield a lake whose full scan fails cleanly or streams at most the
// footer's event count — never panic, never hang.
//
// Run beyond the seed corpus with
//
//	go test -run '^$' -fuzz FuzzOpenBytes -fuzztime 20s ./internal/tracelake
func FuzzOpenBytes(f *testing.F) {
	// Seeds: the intact fixtures of corrupt_test.go and dict_test.go plus
	// the damage shapes those tests hand-craft, so mutation starts next
	// to every validation branch they reach.
	for _, good := range [][]byte{
		buildLake(f, synthEvents(6, 6, 9)),
		buildLake(f, dictEvents(2000, 6, 33)),
		buildLake(f, nil),
	} {
		f.Add(good)
		f.Add(good[:len(good)-1])
		f.Add(good[:len(good)/2])
		flipped := bytes.Clone(good)
		flipped[len(Magic)+16] ^= 0x40
		f.Add(flipped)
		lying := bytes.Clone(good)
		binary.LittleEndian.PutUint64(lying[len(lying)-16:], uint64(len(lying)*2))
		f.Add(lying)
	}
	f.Add([]byte{})
	f.Add(Magic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := OpenBytes(data)
		if err != nil {
			return
		}
		defer l.Close()
		rows := uint64(0)
		if _, err := l.ScanUnordered(Query{}, func(probe.Event) error {
			rows++
			return nil
		}); err != nil {
			return
		}
		if rows > l.Events() {
			t.Fatalf("scan yielded %d rows from a lake of %d events", rows, l.Events())
		}
	})
}
