package higgs_test

import (
	"strings"
	"testing"

	"higgs"
	"higgs/internal/query"
)

// TestWindowFacade: the Window-based constructors and their options must
// build the same wire queries as the planner's positional constructors.
func TestWindowFacade(t *testing.T) {
	w := higgs.Between(0, 500)
	pairs := []struct {
		name      string
		got, want higgs.Query
	}{
		{"edge", higgs.NewEdgeQuery(1, 2, w), query.NewEdge(1, 2, 0, 500)},
		{"vertex out", higgs.NewVertexQuery(1, w), query.NewVertexOut(1, 0, 500)},
		{"vertex out explicit", higgs.NewVertexQuery(1, w, higgs.WithDirection(higgs.DirOut)),
			query.NewVertexOut(1, 0, 500)},
		{"vertex in", higgs.NewVertexQuery(2, w, higgs.WithDirection(higgs.DirIn)),
			query.NewVertexIn(2, 0, 500)},
		{"path", higgs.NewPathQuery([]uint64{1, 2}, w), query.NewPath([]uint64{1, 2}, 0, 500)},
		{"subgraph", higgs.NewSubgraphQuery([][2]uint64{{1, 2}}, w),
			query.NewSubgraph([][2]uint64{{1, 2}}, 0, 500)},
	}
	for _, p := range pairs {
		if p.got.Kind != p.want.Kind || p.got.Ts != p.want.Ts || p.got.Te != p.want.Te ||
			p.got.Dir != p.want.Dir || p.got.V != p.want.V || p.got.S != p.want.S {
			t.Errorf("%s: facade %+v != planner %+v", p.name, p.got, p.want)
		}
	}

	dq := higgs.NewDeltaVertexQuery([]uint64{1, 2}, higgs.Between(0, 10), higgs.Between(11, 20),
		higgs.WithTopK(5), higgs.WithDirection(higgs.DirIn))
	if dq.Kind != higgs.QueryDeltaVertex || dq.Ts != 0 || dq.Te != 10 || dq.Ts2 != 11 || dq.Te2 != 20 ||
		dq.K != 5 || dq.Dir != higgs.DirIn || len(dq.Candidates) != 2 {
		t.Errorf("delta vertex query misbuilt: %+v", dq)
	}
	hq := higgs.NewHeavyHittersQuery(higgs.WithDirection(higgs.DirIn), higgs.WithTopK(3))
	if hq.Kind != higgs.QueryHeavyHitters || hq.Dir != higgs.DirIn || hq.K != 3 {
		t.Errorf("heavy hitters query misbuilt: %+v", hq)
	}
	bq := higgs.NewBurstQuery(higgs.WithTopK(7))
	if bq.Kind != higgs.QueryBurst || bq.K != 7 {
		t.Errorf("burst query misbuilt: %+v", bq)
	}
	cq := higgs.NewDeltaVertexQuery(nil, higgs.Between(0, 10), higgs.Between(11, 20),
		higgs.WithCandidates([]uint64{9}))
	if len(cq.Candidates) != 1 || cq.Candidates[0] != 9 {
		t.Errorf("WithCandidates not applied: %+v", cq)
	}
}

// TestZeroWindowRejected: the zero Window is invalid by design — a query
// that never set its window fails with a distinct error instead of
// silently answering the weight at instant 0.
func TestZeroWindowRejected(t *testing.T) {
	s := newSeededSharded(t, 2)
	var zero higgs.Window
	r := s.Do(higgs.NewEdgeQuery(1, 2, zero))
	if r.Err == nil || !strings.Contains(r.Err.Error(), "zero-value window") {
		t.Fatalf("zero window not rejected distinctly: %+v", r)
	}
	// A genuine single-instant window elsewhere on the axis stays valid.
	if r := s.Do(higgs.NewEdgeQuery(1, 2, higgs.Between(100, 100))); r.Err != nil {
		t.Fatalf("single-instant window rejected: %v", r.Err)
	}
}

// TestAnalyticsFacade: the library-level analytics wiring — NewAnalytics,
// SetApplyObserver, DoBatchWith — answers heavy-hitter, burst, and delta
// queries without higgsd.
func TestAnalyticsFacade(t *testing.T) {
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2
	s, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	eng, err := higgs.NewAnalytics(higgs.AnalyticsConfig{Shards: 2, Seed: cfg.Core.Seed})
	if err != nil {
		t.Fatal(err)
	}
	s.SetApplyObserver(eng)

	var tick int64
	for v := uint64(0); v < 50; v++ {
		s.Insert(higgs.Edge{S: v, D: v + 1, W: 1, T: tick})
		tick++
	}
	s.Insert(higgs.Edge{S: 1000, D: 1, W: 900, T: tick})

	rs := higgs.DoBatchWith(s, eng, []higgs.Query{
		higgs.NewHeavyHittersQuery(higgs.WithTopK(1)),
		higgs.NewBurstQuery(),
		higgs.NewDeltaVertexQuery([]uint64{1000}, higgs.Between(0, tick-1), higgs.Between(tick, tick+10)),
	})
	if rs[0].Err != nil || len(rs[0].Top) != 1 || rs[0].Top[0].S != 1000 {
		t.Fatalf("heavy hitters through the facade = %+v", rs[0])
	}
	if rs[1].Err != nil {
		t.Fatalf("burst through the facade: %v", rs[1].Err)
	}
	if rs[2].Err != nil || len(rs[2].Top) != 1 || rs[2].Top[0].Delta != 900 {
		t.Fatalf("delta through the facade = %+v", rs[2])
	}

	// Without an engine the sketch kinds fail per item with a stable code.
	rs = higgs.DoBatchWith(s, nil, []higgs.Query{higgs.NewHeavyHittersQuery()})
	if rs[0].Err == nil || !strings.Contains(rs[0].Err.Error(), "analytics") {
		t.Fatalf("nil-engine sketch query = %+v", rs[0])
	}
}
