package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"higgs/internal/analytics"
	"higgs/internal/query"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// TestAnalyticsRebuiltOnSwap: both summary swap paths — ReplaceSummary on a
// replica, snapshot upload on a standalone server — replace the adopted
// analytics engine with a fresh one observing the new summary. Afterwards
// /healthz reports analytics enabled, heavy_hitters ranks only edges
// applied to the new summary, and the adopted engine sees no more applies.
func TestAnalyticsRebuiltOnSwap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		replica bool
		swap    func(t *testing.T, srv *Server, ts *httptest.Server, next *shard.Summary)
	}{
		{"replica ReplaceSummary", true, func(t *testing.T, srv *Server, _ *httptest.Server, next *shard.Summary) {
			if err := srv.ReplaceSummary(next); err != nil {
				t.Fatal(err)
			}
		}},
		{"standalone snapshot upload", false, func(t *testing.T, _ *Server, ts *httptest.Server, next *shard.Summary) {
			var snap bytes.Buffer
			if _, err := next.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			next.Close()
			resp, err := http.Post(ts.URL+"/v1/snapshot", "application/octet-stream", &snap)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("snapshot upload status %d", resp.StatusCode)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum := newSeededSummary(t, 2)
			eng, err := analytics.New(analytics.Config{Shards: 2, Seed: sum.Config().Core.Seed})
			if err != nil {
				t.Fatal(err)
			}
			sum.SetApplyObserver(eng)
			sum.InsertBatch([]stream.Edge{{S: 7, D: 8, W: 500, T: 40}})
			srv, err := New(sum, Config{Replica: tc.replica, Analytics: eng})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				ts.Close()
				srv.Close()
			})
			if top := heavyHitters(t, ts.URL); len(top) != 1 || top[0].S != 7 {
				t.Fatalf("heavy hitters before the swap = %+v, want vertex 7 alone", top)
			}
			adopted := eng.Stats().Edges

			next := newSeededSummary(t, 2)
			tc.swap(t, srv, ts, next)
			// Applied the way the follower's applier or the ingest pipeline
			// would: through the served summary's shard entry points.
			srv.Summary().InsertBatch([]stream.Edge{{S: 9, D: 10, W: 300, T: 50}})

			health := decode[struct {
				Analytics struct {
					Enabled bool  `json:"enabled"`
					Edges   int64 `json:"edges"`
				} `json:"analytics"`
			}](t, get(t, ts.URL+"/healthz"))
			if !health.Analytics.Enabled || health.Analytics.Edges != 1 {
				t.Fatalf("analytics after the swap = %+v, want enabled with 1 edge", health.Analytics)
			}
			if top := heavyHitters(t, ts.URL); len(top) != 1 || top[0].S != 9 || top[0].Cur != 300 {
				t.Fatalf("heavy hitters after the swap = %+v, want vertex 9 (300) alone", top)
			}
			if got := eng.Stats().Edges; got != adopted {
				t.Fatalf("adopted engine absorbed %d edges after the swap, want 0", got-adopted)
			}
		})
	}
}

// heavyHitters asks /v2/query for the top out-direction heavy hitters.
func heavyHitters(t *testing.T, base string) []query.Entry {
	t.Helper()
	resp := post(t, base+"/v2/query", `[{"kind":"heavy_hitters","k":5}]`)
	out := decode[[]struct {
		Top   []query.Entry `json:"top"`
		Error string        `json:"error"`
	}](t, resp)
	if len(out) != 1 || out[0].Error != "" {
		t.Fatalf("heavy_hitters answer = %+v", out)
	}
	return out[0].Top
}
