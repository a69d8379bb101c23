package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"higgs/internal/query"
	"higgs/internal/rcache"
)

// runTraced is the --trace 1 run. It measures the workload's fixed-rate
// phase twice on the in-process stack: once untraced, as the baseline of
// the tracing overhead, and once traced, for the per-layer metrics.
func runTraced(c config, w *workload, d *data, rep *report) error {
	p := plan(c)
	one := c
	one.setups = 1
	boot := func(name string, tr *tracer) func(int) (target, error) {
		return func(int) (target, error) { return newStack(filepath.Join(c.work, name), tr) }
	}

	t0, _, err := setups(one, d.pre, boot("untraced", nil))
	if err != nil {
		return err
	}
	l0, err := newLanes(t0.base(), w, c, d, nil)
	if err != nil {
		t0.stop()
		return err
	}
	if err := settle(t0); err != nil {
		t0.stop()
		return err
	}
	ws0, rs0 := phase(l0.w, l0.r, w.writeArrivals(p.fixed), w.readArrivals(p.fixed), fixedGrace)
	l0.close()
	t0.stop()

	tr := newTracer()
	t, _, err := setups(one, d.pre, boot("traced", tr))
	if err != nil {
		return err
	}
	st := t.(*stack)
	defer st.stop()
	l, err := newLanes(st.base(), w, c, d, tr)
	if err != nil {
		return err
	}
	defer l.close()

	if err := settle(st); err != nil {
		return err
	}
	h0, err := healthz(st.base())
	if err != nil {
		return err
	}
	c0 := st.count.snap()
	from := tr.now()
	ws, rs := phase(l.w, l.r, w.writeArrivals(p.fixed), w.readArrivals(p.fixed), fixedGrace)
	to := tr.now()
	c1 := st.count.snap()
	h1, err := healthz(st.base())
	if err != nil {
		return err
	}
	if err := validRun(ws, rs); err != nil {
		return err
	}
	countFailures(rep, ws, rs)

	v, err := verify(st, d, l.w, c.seed)
	if err != nil {
		return err
	}
	rep.Correct = v.correct
	rep.set("core.answer_are", "ratio", v.are)
	for _, f := range v.failures {
		rep.notes = append(rep.notes, "FAIL "+f)
	}
	sts, err := stats(st.base())
	if err != nil {
		return err
	}

	spans := tr.snapshot()
	lm := layers{rep: rep, spans: inWindow(spans, from, to), all: spans}
	lm.compute(c1.minus(c0), h0, h1)
	a, err := measureAllocs(st, w, l, c.seed)
	if err != nil {
		return err
	}
	rep.set("server.read_allocs_per_item", "allocs", a.readPerItem)
	rep.set("server.write_allocs_per_edge", "allocs", a.writePerEdge)
	as := st.ctrl.Stats()
	rep.set("admit.shed", "count", float64(as.Cheap.Shed+as.Heavy.Shed+as.RateLimited))
	rep.set("ingest.refused", "count", float64(ws.refused))
	rep.set("wal.segments", "count", float64(st.wlog.Segments()))
	rep.set("core.space_bytes", "B", float64(sts.Total.SpaceBytes))
	rep.set("core.layers", "count", float64(sts.Total.Layers))
	rep.set("core.leaves", "count", float64(sts.Total.Leaves))
	rep.set("core.overflow_blocks", "count", float64(sts.Total.OverflowBlocks))
	rep.set("core.leaf_util", "ratio", sts.Total.AvgLeafUtil)
	rep.set("core.clamped", "count", float64(sts.Total.Clamped))
	rep.set("loadgen.late_p99_ms", "ms", lateP99(ws, rs))
	rep.set("loadgen.sent", "count", float64(ws.attempted+rs.attempted))
	rep.set("trace.read_overhead_ms", "ms", rs.p(0.5)-rs0.p(0.5))
	rep.set("trace.write_overhead_ms", "ms", ws.p(0.5)-ws0.p(0.5))
	rep.notes = append(rep.notes, fmt.Sprintf("in-process read p50: untraced %.3f ms, traced %.3f ms", rs0.p(0.5), rs.p(0.5)))
	if w.writeEPS > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("in-process write p50: untraced %.3f ms, traced %.3f ms", ws0.p(0.5), ws.p(0.5)))
	}

	if n := st.count.mirrorFailed.Load(); n > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d mirrored calls failed; their spans are missing", n))
	}
	if c.spans != "" {
		if err := os.MkdirAll(c.spans, 0o755); err != nil {
			return err
		}
		out := filepath.Join(c.spans, fmt.Sprintf("%s-seed%d.tsv", w.name, c.seed))
		if err := tr.write(out); err != nil {
			return err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(spans), out))
	}
	return nil
}

// inWindow keeps the spans of requests the generator started in [from,
// to], and the unattributed spans (the apply observer's) that started in
// it.
func inWindow(spans []*span, from, to int64) []*span {
	reqs := map[int64]bool{}
	for _, s := range spans {
		if s.name == "higgsd" && s.start >= from && s.start <= to {
			reqs[s.req] = true
		}
	}
	var out []*span
	for _, s := range spans {
		if reqs[s.req] || (s.req == 0 && s.start >= from && s.start <= to) {
			out = append(out, s)
		}
	}
	return out
}

// countSnap is a point-in-time copy of the stack's counters.
type countSnap map[string]int64

func (c *counters) snap() countSnap {
	return countSnap{
		"applyCalls": c.applyCalls.Load(), "applyEdges": c.applyEdges.Load(),
		"batches": c.batches.Load(), "items": c.items.Load(), "planned": c.planned.Load(),
		"cacheCalls": c.cacheCalls.Load(), "backendCalls": c.backendCalls.Load(),
		"backendProbes": c.backendProbes.Load(),
		"walAppends":    c.walAppends.Load(), "walEdges": c.walEdges.Load(),
	}
}

func (a countSnap) minus(b countSnap) countSnap {
	out := countSnap{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// layers turns a traced phase's spans and counters into the per-layer
// metrics.
type layers struct {
	rep   *report
	spans []*span // the measured phase
	all   []*span // the whole run (flushes happen outside the phase)
}

func (lm *layers) compute(n countSnap, h0, h1 health) {
	self := selfTimes(lm.spans)
	type reqSpans struct{ client, wrap, server, query, submit *span }
	byReq := map[int64]*reqSpans{}
	get := func(req int64) *reqSpans {
		r := byReq[req]
		if r == nil {
			r = &reqSpans{}
			byReq[req] = r
		}
		return r
	}
	durs := map[string][]float64{} // name/attr → µs
	selfs := map[string][]float64{}
	for _, s := range lm.spans {
		key := s.name + "/" + s.attr
		durs[key] = append(durs[key], us(s.dur()))
		selfs[key] = append(selfs[key], us(self[s.id]))
		r := get(s.req)
		switch {
		case s.name == "higgsd":
			r.client = s
		case s.name == "wrap":
			r.wrap = s
		case s.name == "server":
			r.server = s
		case s.name == "query":
			r.query = s
		case s.name == "ingest" && s.attr == "submit":
			r.submit = s
		}
	}
	var wireR, wireW, selfR, selfW []float64
	for _, r := range byReq {
		if r.client == nil || r.wrap == nil || r.server == nil {
			continue
		}
		wire := us(r.client.dur() - r.wrap.dur())
		switch r.client.attr {
		case "/v2/query":
			wireR = append(wireR, wire)
			if r.query != nil {
				selfR = append(selfR, us(r.server.dur()-r.query.dur()))
			}
		case "/v1/ingest":
			wireW = append(wireW, wire)
			if r.submit != nil {
				selfW = append(selfW, us(r.server.dur()-r.submit.dur()))
			}
		}
	}
	var flushes []float64
	for _, s := range lm.all {
		if s.name == "server" && s.attr == "/v1/flush" {
			flushes = append(flushes, us(s.dur()))
		}
	}
	set, f := lm.rep.set, func(k string) float64 { return float64(n[k]) }
	set("higgsd.wire_read_us", "us", median(wireR))
	set("higgsd.wire_write_us", "us", median(wireW))
	set("server.read_self_us", "us", median(selfR))
	set("server.write_self_us", "us", median(selfW))
	set("admit.wait_us", "us", quantile(durs["admit/admit"], 0.99))
	set("query.batch_us", "us", median(durs["query/batch"]))
	set("query.self_us", "us", median(selfs["query/batch"]))
	set("query.probes_per_item", "probes", ratio(f("planned"), f("items")))
	set("query.shard_calls_per_batch", "calls", ratio(f("cacheCalls"), f("batches")))
	hits, misses := float64(h1.ReadCache.Hits-h0.ReadCache.Hits), float64(h1.ReadCache.Misses-h0.ReadCache.Misses)
	set("rcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	set("rcache.self_us", "us", median(selfs["rcache/probe_shard"]))
	set("rcache.evictions", "count", float64(h1.ReadCache.Evictions-h0.ReadCache.Evictions))
	set("rcache.backend_calls_per_batch", "calls", ratio(f("backendCalls"), f("batches")))
	set("shard.probe_us_p50", "us", median(durs["shard/probe_shard"]))
	set("shard.probe_us_p99", "us", quantile(durs["shard/probe_shard"], 0.99))
	set("shard.probes_per_call", "probes", ratio(f("backendProbes"), f("backendCalls")))
	set("shard.apply_calls", "count", f("applyCalls"))
	set("shard.apply_edges_per_call", "edges", ratio(f("applyEdges"), f("applyCalls")))
	set("ingest.submit_us", "us", median(durs["ingest/submit"]))
	set("ingest.flush_us", "us", median(flushes))
	set("wal.append_us", "us", median(durs["wal/append"]))
	set("wal.sync_wait_us", "us", median(durs["wal/sync_wait"]))
	set("wal.edges_per_record", "edges", ratio(f("walEdges"), f("walAppends")))
	set("analytics.observe_us", "us", median(durs["analytics/observe"]))
	set("analytics.query_us", "us", median(durs["analytics/query"]))
}

// allocs are the allocation counts of the server's own work, measured
// serially after the traced phase so no other request shares the counts.
type allocs struct{ readPerItem, writePerEdge float64 }

// allocRequests is how many requests of each kind the measurement replays.
const allocRequests = 32

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// measureAllocs replays fresh read batches through the server's own
// handler and through query.DoBatchWith over a read cache on the same
// summary; the difference per item is the server's share. Writes replay
// the next streamed batches through the handler; every allocation of the
// write path, the pipeline's included, is charged to them.
func measureAllocs(st *stack, w *workload, l *lanes, seed int64) (allocs, error) {
	gen := w.reads(seed+1, l.env)
	bodies := make([][]byte, allocRequests)
	batches := make([][]query.Query, allocRequests)
	items := 0
	for i := range bodies {
		qs := gen(time.Now())
		bodies[i], batches[i] = encodeQueries(qs), st.decodeQueries(encodeQueries(qs))
		items += len(qs)
	}
	serve := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		st.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			return fmt.Errorf("alloc replay %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return nil
	}
	m0 := mallocs()
	for _, b := range bodies {
		if err := serve("/v2/query", b); err != nil {
			return allocs{}, err
		}
	}
	handler := mallocs() - m0
	rc, err := rcache.New(st.sum, rcache.Config{MaxBytes: cacheBytes})
	if err != nil {
		return allocs{}, err
	}
	for _, b := range batches {
		query.DoBatchWith(rc, st.eng, b) // warm, as the server's cache is
	}
	m0 = mallocs()
	for _, b := range batches {
		query.DoBatchWith(rc, st.eng, b)
	}
	planner := mallocs() - m0
	var a allocs
	a.readPerItem = (float64(handler) - float64(planner)) / float64(items)

	edges := 0
	wb := make([][]byte, allocRequests)
	for i := range wb {
		j := l.w.job(time.Now())
		wb[i], edges = j.body, edges+j.items
	}
	m0 = mallocs()
	for _, b := range wb {
		if err := serve("/v1/ingest", b); err != nil {
			return allocs{}, err
		}
	}
	a.writePerEdge = float64(mallocs()-m0) / float64(edges)
	return a, nil
}
