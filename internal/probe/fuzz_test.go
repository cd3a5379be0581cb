package probe

import (
	"bytes"
	"math"
	"testing"
)

// encodeTrace writes events in one format and returns the bytes.
func encodeTrace(tb testing.TB, format Format, events []Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, format)
	for _, ev := range events {
		w.OnEvent(ev)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameEvent compares events bit for bit (NaN payloads included).
func sameEvent(a, b Event) bool {
	return a.Type == b.Type && a.Kind == b.Kind && a.From == b.From && a.To == b.To && a.Round == b.Round &&
		math.Float64bits(a.T) == math.Float64bits(b.T) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.Aux) == math.Float64bits(b.Aux)
}

// FuzzReadTrace feeds arbitrary bytes to the row-trace reader, which
// sniffs binary, lake and JSONL input from the leading bytes. Whatever
// the input, ReadTrace must fail cleanly or yield at most one event per
// input byte, each of a valid type, and those events must round-trip
// bit-exactly through the binary format — never panic, never hang.
//
// Run beyond the seed corpus with
//
//	go test -run '^$' -fuzz FuzzReadTrace -fuzztime 20s ./internal/probe
func FuzzReadTrace(f *testing.F) {
	// Seeds: trace_test.go's fixtures and the damage shapes its tests
	// hand-craft.
	events := traceTestEvents()
	jsonl := encodeTrace(f, FormatJSONL, events)
	bin := encodeTrace(f, FormatBinary, events)
	f.Add(jsonl)
	f.Add(bin)
	f.Add(bin[:len(bin)-5])                         // cut mid-frame
	f.Add(bin[:len(binaryMagic)+2*binaryFrameSize]) // whole frames only
	badType := bytes.Clone(bin)
	badType[len(binaryMagic)+binaryFrameSize] = 0xEE
	f.Add(badType)
	f.Add(jsonl[:len(jsonl)/2])
	f.Add([]byte(`{"type":"no_such_event","t":1}` + "\n"))
	f.Add([]byte(`{"type":"pulse","t":1,"from":0,"to":0,"kind":0,"round":1,"value":0,"aux":0}` + "\n" + `{"type":"pulse","t":`))
	f.Add(append(LakeMagic[:], "rest of a columnar container"...))
	f.Add(binaryMagic[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Event
		if err := ReadTrace(bytes.NewReader(data), func(ev Event) error {
			got = append(got, ev)
			return nil
		}); err != nil {
			return
		}
		if len(got) > len(data) {
			t.Fatalf("read %d events from %d bytes", len(got), len(data))
		}
		for i, ev := range got {
			if ev.Type <= typeInvalid || ev.Type >= numTypes {
				t.Fatalf("event %d has invalid type %d", i, ev.Type)
			}
		}
		var back []Event
		if err := ReadTrace(bytes.NewReader(encodeTrace(t, FormatBinary, got)), func(ev Event) error {
			back = append(back, ev)
			return nil
		}); err != nil {
			t.Fatalf("re-encoded trace does not read back: %v", err)
		}
		if len(back) != len(got) {
			t.Fatalf("binary round trip kept %d of %d events", len(back), len(got))
		}
		for i := range got {
			if !sameEvent(back[i], got[i]) {
				t.Fatalf("event %d drifted through the binary format:\n got  %+v\n want %+v", i, back[i], got[i])
			}
		}
	})
}
