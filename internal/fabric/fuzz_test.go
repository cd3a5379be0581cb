package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"optsync/internal/harness"
)

// FuzzServerRequests feeds arbitrary bodies to the coordinator's two
// decoding endpoints: each input is POSTed to /lease and then to /report
// of a fresh in-memory Server over its own store, so an input replays
// identically. Properties: nothing panics; every status is 200, 400 or
// 413 (a malformed body is the client's fault, never a 5xx); /progress
// keeps Total = Done + Leased + Pending; and /aggregates still answers
// over whatever the report settled.
func FuzzServerRequests(f *testing.F) {
	camp := testCampaign()
	cells, err := camp.Cells()
	if err != nil {
		f.Fatal(err)
	}
	res, err := harness.RunContext(context.Background(), cells[0].Spec)
	if err != nil {
		f.Fatal(err)
	}
	res.Series, res.Pulses = nil, nil // the store drops them too
	seed := func(v any) []byte {
		blob, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	report := seed(ReportRequest{Worker: "w", Cells: []CellReport{{Index: 0, Key: cells[0].Key, Result: res}}})
	for _, body := range [][]byte{
		seed(LeaseRequest{Worker: "w", Max: 3}),
		report,
		report[:len(report)/2], // truncated object
		[]byte(`{"worker":"w","max":"three"}`),
		[]byte(`{"worker":"w","cells":{"index":0}}`),
		seed(ReportRequest{Worker: "w", Cells: []CellReport{{Index: len(cells), Key: cells[0].Key}}}),
		seed(ReportRequest{Worker: "w", Cells: []CellReport{{Index: -1, Key: cells[0].Key}}}),
		seed(ReportRequest{Worker: "w", Cells: []CellReport{{Index: 0, Key: strings.Repeat("ab", 32)}}}),
		{},
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := NewServer(camp, quietStore(t, t.TempDir()+"/store"), ServerOptions{
			Warn: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		for _, path := range []string{"/lease", "/report"} {
			rec := do(http.MethodPost, path, body)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("POST %s: status %d (%s)", path, rec.Code, rec.Body)
			}
		}
		var prog Progress
		rec := do(http.MethodGet, "/progress", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /progress: status %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &prog); err != nil {
			t.Fatal(err)
		}
		if prog.Total != len(cells) || prog.Total != prog.Done+prog.Leased+prog.Pending {
			t.Fatalf("progress %+v breaks Total = Done + Leased + Pending over %d cells", prog, len(cells))
		}
		if rec := do(http.MethodGet, "/aggregates", nil); rec.Code != http.StatusOK {
			t.Fatalf("GET /aggregates: status %d (%s)", rec.Code, rec.Body)
		}
	})
}
