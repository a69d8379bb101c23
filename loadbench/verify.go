package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"higgs/internal/exact"
	"higgs/internal/query"
	"higgs/internal/stream"
)

// verification is the correctness and accuracy check made after the
// fixed-rate phase, on its deterministic acknowledged prefix.
type verification struct {
	correct     bool
	failures    []string
	are         float64 // mean relative error over items with a non-zero truth
	undercounts int
	checked     int
	items       int64 // flushed item count
	acked       int64 // preload + edges acknowledged with 200 or 202
	clamped     int64
	spacePerEdg float64
	heapMB      float64
}

func (v *verification) fail(format string, args ...any) {
	v.correct = false
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
}

func (v *verification) record(rep *report) {
	rep.Correct = v.correct
	// The summary answers this verification set exactly at these stream
	// sizes, so the mean relative error is 0 and no relative bound could
	// gate it; 1/(1+ARE) is 1 when exact and falls as the error grows.
	rep.set("answer_accuracy", "ratio", 1/(1+v.are))
	rep.show("answer_are", "ratio", v.are)
	rep.set("space_bytes_per_edge", "B/edge", v.spacePerEdg)
	rep.set("heap_inuse_mb", "MiB", v.heapMB)
	rep.notes = append(rep.notes, fmt.Sprintf("verify: %d items checked, ARE %.4f, %d undercounts; items %d, acknowledged %d, clamped %d",
		v.checked, v.are, v.undercounts, v.items, v.acked, v.clamped))
	for _, f := range v.failures {
		rep.notes = append(rep.notes, "FAIL "+f)
	}
}

// verifyItems is the size of the verification query set.
const verifyItems = 1600

// verify flushes, then checks the daemon against internal/exact over the
// acknowledged edges: no undercount, no clamped item, and exactly the
// acknowledged edges applied. It also reads space and heap at that point.
func verify(t target, d *data, w *writer, seed int64) (*verification, error) {
	v := &verification{correct: true}
	items, err := flush(t.base())
	if err != nil {
		return nil, err
	}
	st, err := stats(t.base())
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	acked := append(append(stream.Stream(nil), d.pre...), w.acked...)
	w.mu.Unlock()
	v.items, v.acked, v.clamped = items, int64(len(acked)), st.Total.Clamped
	if items != v.acked || st.Total.Items != v.acked {
		v.fail("flushed items %d (stats %d) != acknowledged edges %d", items, st.Total.Items, v.acked)
	}
	if v.clamped != 0 {
		v.fail("%d items clamped: the stream reached a shard out of time order", v.clamped)
	}
	v.spacePerEdg = ratio(float64(st.Total.SpaceBytes), float64(st.Total.Items))

	truth := exact.FromStream(acked)
	qs := verificationSet(d, acked, seed)
	var sumRE float64
	var nRE int
	for lo := 0; lo < len(qs); lo += 64 {
		batch := qs[lo:min(lo+64, len(qs))]
		var out []struct {
			Weight *int64 `json:"weight"`
			Error  string `json:"error"`
		}
		if _, err := post(t.base(), "/v2/query", encodeQueries(batch), &out); err != nil {
			return nil, err
		}
		if len(out) != len(batch) {
			return nil, fmt.Errorf("verify: %d answers to %d queries", len(out), len(batch))
		}
		for i, q := range batch {
			if out[i].Weight == nil {
				v.fail("query %d (%s): no weight (%s)", lo+i, q.Kind, out[i].Error)
				continue
			}
			est, want := *out[i].Weight, exactAnswer(truth, q)
			v.checked++
			if est < want {
				v.undercounts++
				if v.undercounts <= 5 {
					v.fail("undercount on %s %+v: estimate %d < exact %d", q.Kind, q, est, want)
				}
			}
			if want > 0 {
				sumRE += float64(est-want) / float64(want)
				nRE++
			}
		}
	}
	if v.undercounts > 5 {
		v.fail("%d undercounts in total", v.undercounts)
	}
	v.are = ratio(sumRE, float64(nRE))

	if err := t.gc(); err != nil {
		return nil, err
	}
	h, err := healthz(t.base())
	if err != nil {
		return nil, err
	}
	v.heapMB = float64(h.Memory.HeapInuseBytes) / (1 << 20)
	return v, nil
}

// verificationSet is a fixed query mix over the acknowledged edges, drawn
// from the workload's own data: edge, vertex, path and subgraph queries
// on random windows of the acknowledged span.
func verificationSet(d *data, acked stream.Stream, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed ^ 0x7e51f1ed))
	first, last := acked.Span()
	env := &readEnv{pre: d.pre, adj: map[uint64][]uint64{}}
	for _, e := range d.pre {
		env.adj[e.S] = append(env.adj[e.S], e.D)
	}
	qs := make([]query.Query, verifyItems)
	for i := range qs {
		e := acked[rng.Intn(len(acked))]
		ts, te := randomWindow(rng, first, last)
		switch i % 8 {
		case 0, 1, 2, 3:
			qs[i] = query.NewEdge(e.S, e.D, ts, te)
		case 4:
			qs[i] = query.NewVertexOut(e.S, ts, te)
		case 5:
			qs[i] = query.NewVertexIn(e.D, ts, te)
		case 6:
			qs[i] = query.NewPath(env.walk(rng, e.S, 4), ts, te)
		default:
			sub := make([][2]uint64, 4)
			for k := range sub {
				f := acked[rng.Intn(len(acked))]
				sub[k] = [2]uint64{f.S, f.D}
			}
			qs[i] = query.NewSubgraph(sub, ts, te)
		}
	}
	return qs
}

func exactAnswer(t *exact.Store, q query.Query) int64 {
	switch q.Kind {
	case query.KindEdge:
		return t.EdgeWeight(q.S, q.D, q.Ts, q.Te)
	case query.KindVertexOut:
		return t.VertexOut(q.V, q.Ts, q.Te)
	case query.KindVertexIn:
		return t.VertexIn(q.V, q.Ts, q.Te)
	case query.KindPath:
		return t.PathWeight(q.Path, q.Ts, q.Te)
	case query.KindSubgraph:
		return t.SubgraphWeight(q.Edges, q.Ts, q.Te)
	}
	return 0
}

// encodeQueries is the /v2/query body of a batch.
func encodeQueries(qs []query.Query) []byte {
	b, err := json.Marshal(qs)
	if err != nil {
		// Every field of query.Query encodes; reaching here is a bug.
		panic(err)
	}
	return b
}
