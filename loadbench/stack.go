package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/admit"
	"higgs/internal/analytics"
	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/server"
	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// stack is the daemon assembled in-process from the public constructors,
// the way cmd/higgsd wires it, and served on a loopback listener. With a
// tracer it records spans around every seam the benchmark can reach
// without changing the program:
//
//   - a timing wrapper around server.Handler();
//   - a shard.ApplyObserver around the analytics engine, on the served
//     summary's real write path;
//   - and, for the layers the server keeps private, a mirror: after the
//     real handler answers, the wrapper runs the same request through
//     benchmark-owned instances of the same layers — admit.Controller.Admit,
//     query.DoBatchWith over a query.Prober around an rcache.Cache over an
//     rcache.Backend around the served shard.Summary, and on writes
//     wal.Log.Append and WaitSynced on a benchmark-owned log followed by
//     ingest.Pipeline.Submit on a benchmark-owned pipeline.
//
// The mirror is what "the matching query.DoBatchWith" means in the server
// self times: the real handler's span minus the mirror's span of the same
// request.
type stack struct {
	sum   *shard.Summary
	wlog  *wal.Log
	srv   *server.Server
	ctrl  *admit.Controller
	snap  *ingest.Snapshotter
	hsrv  *http.Server
	ln    net.Listener
	url   string
	h     http.Handler // the server's own handler
	tr    *tracer
	count counters

	// Mirror of the private layers (traced stacks only).
	readMu  sync.Mutex // one read mirror at a time: cacheSpan is shared
	writeMu sync.Mutex
	mctrl   *admit.Controller
	mcache  *rcache.Cache
	cacheSp []*span // the open rcache span of each shard
	mlog    *wal.Log
	msum    *shard.Summary
	mpipe   *ingest.Pipeline
	eng     *analytics.Engine
}

// counters are the per-layer counts recorded at the same boundaries as
// the spans.
type counters struct {
	applyCalls, applyEdges   atomic.Int64 // shard applies seen by the observer
	batches, items, planned  atomic.Int64 // mirrored /v2/query batches
	cacheCalls, backendCalls atomic.Int64 // ProbeShard calls into rcache / shard
	backendProbes            atomic.Int64
	walAppends, walEdges     atomic.Int64
	mirrorFailed             atomic.Int64 // mirror calls that returned an error
}

func newStack(dir string, tr *tracer) (*stack, error) {
	// A WAL left in dir would be recovered and change the experiment.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	sum, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &stack{sum: sum, tr: tr}
	eng, err := analytics.New(analytics.Config{Shards: shards, Seed: sum.Config().Core.Seed})
	if err != nil {
		return nil, err
	}
	st.eng = eng
	if tr != nil {
		sum.SetApplyObserver(&tracedObserver{st: st})
	} else {
		sum.SetApplyObserver(eng)
	}
	if st.wlog, err = wal.Open(wal.Config{Dir: filepath.Join(dir, "wal")}); err != nil {
		return nil, err
	}
	icfg := ingest.DefaultConfig()
	icfg.Mode = ingest.ModeAuto
	icfg.WAL = st.wlog
	if st.srv, err = server.NewWithIngest(sum, icfg); err != nil {
		return nil, err
	}
	if err := st.srv.SetReadCache(cacheBytes); err != nil {
		return nil, err
	}
	if st.ctrl, err = admit.New(admit.Config{HeavyConcurrency: admitHeavy}); err != nil {
		return nil, err
	}
	st.srv.SetAdmission(st.ctrl)
	st.srv.SetAnalyticsEngine(eng)
	st.snap = ingest.NewSnapshotter(sum, st.srv.Pipeline(), st.wlog, filepath.Join(dir, "wal", "snapshot.higgs"), snapshotInterval, func(error) {})
	st.snap.Start()

	st.h = st.srv.Handler()
	h := st.h
	if tr != nil {
		if err := st.newMirror(dir); err != nil {
			return nil, err
		}
		h = st
	}
	if st.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	st.url = "http://" + st.ln.Addr().String()
	st.hsrv = &http.Server{Handler: h}
	go func() { _ = st.hsrv.Serve(st.ln) }() // returns ErrServerClosed on stop
	return st, nil
}

// newMirror builds the benchmark-owned instances of the private layers.
func (st *stack) newMirror(dir string) error {
	var err error
	if st.mctrl, err = admit.New(admit.Config{HeavyConcurrency: admitHeavy}); err != nil {
		return err
	}
	if st.mcache, err = rcache.New(&tracedBackend{st: st}, rcache.Config{MaxBytes: cacheBytes}); err != nil {
		return err
	}
	st.cacheSp = make([]*span, shards)
	if st.mlog, err = wal.Open(wal.Config{Dir: filepath.Join(dir, "mirror-wal")}); err != nil {
		return err
	}
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	if st.msum, err = shard.New(cfg); err != nil {
		return err
	}
	st.mpipe, err = ingest.New(st.msum, ingest.Config{Mode: ingest.ModeAuto})
	return err
}

func (st *stack) base() string { return st.url }

func (st *stack) gc() error { runtime.GC(); return nil }

func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = st.hsrv.Shutdown(ctx) // a hung connection is cut by Close below
	_ = st.hsrv.Close()
	st.snap.Close()
	st.srv.Close()
	_ = st.wlog.Close() // the directory is thrown away
	st.sum.Close()
	if st.mpipe != nil {
		st.mpipe.Close()
		_ = st.mlog.Close()
		st.msum.Close()
	}
}

// statusWriter records the status the real handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ServeHTTP is the timing wrapper: span "wrap" covers everything the
// process does for the request, "server" the real handler, and the mirror
// spans follow it as siblings under "wrap".
func (st *stack) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // 0 for untraced control requests
	wrap := st.tr.start("wrap", r.URL.Path, nil, req)
	wrap.parent = req
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	sw := &statusWriter{ResponseWriter: w}
	sp := st.tr.start("server", r.URL.Path, wrap, 0)
	st.h.ServeHTTP(sw, r)
	st.tr.end(sp)
	if sw.code/100 == 2 {
		switch r.URL.Path {
		case "/v2/query":
			st.mirrorRead(wrap, body)
		case "/v1/ingest":
			st.mirrorWrite(wrap, body)
		}
	}
	st.tr.end(wrap)
}

// decodeQueries parses a /v2/query body the way the server does, filling
// an omitted delta_vertex candidate set from the engine's tracked
// vertices.
func (st *stack) decodeQueries(body []byte) []query.Query {
	var raws []json.RawMessage
	if json.Unmarshal(body, &raws) != nil {
		return nil
	}
	batch := make([]query.Query, 0, len(raws))
	for _, raw := range raws {
		var q query.Query
		if json.Unmarshal(raw, &q) != nil {
			continue
		}
		if q.Kind == query.KindDeltaVertex && len(q.Candidates) == 0 {
			q.Candidates = st.eng.CandidateVertices(q.Dir, 256)
		}
		batch = append(batch, q)
	}
	return batch
}

func (st *stack) mirrorRead(wrap *span, body []byte) {
	batch := st.decodeQueries(body)
	st.readMu.Lock()
	defer st.readMu.Unlock()
	n := probes(batch, shards)
	a := st.tr.start("admit", "admit", wrap, 0)
	release, err := st.mctrl.Admit("mirror", n)
	st.tr.end(a)
	if err != nil {
		st.count.mirrorFailed.Add(1)
		return
	}
	defer release()
	q := st.tr.start("query", "batch", wrap, 0)
	query.DoBatchWith(&tracedProber{st: st, parent: q}, tracedAnalytics{st: st, parent: q}, batch)
	st.tr.end(q)
	st.count.batches.Add(1)
	st.count.items.Add(int64(len(batch)))
	st.count.planned.Add(int64(n))
}

func (st *stack) mirrorWrite(wrap *span, body []byte) {
	var es []struct {
		S, D uint64
		W, T int64
	}
	if json.Unmarshal(body, &es) != nil {
		return
	}
	edges := make([]stream.Edge, len(es))
	for i, e := range es {
		edges[i] = stream.Edge{S: e.S, D: e.D, W: e.W, T: e.T}
	}
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	sub := st.tr.start("ingest", "submit", wrap, 0)
	ap := st.tr.start("wal", "append", sub, 0)
	last, err := st.mlog.Append(edges, func(uint64) error { return nil })
	st.tr.end(ap)
	if err == nil {
		sy := st.tr.start("wal", "sync_wait", sub, 0)
		err = st.mlog.WaitSynced(last)
		st.tr.end(sy)
	}
	if err != nil {
		st.count.mirrorFailed.Add(1)
	}
	st.count.walAppends.Add(1)
	st.count.walEdges.Add(int64(len(edges)))
	for {
		_, err := st.mpipe.Submit(edges)
		if !errors.Is(err, ingest.ErrQueueFull) {
			if err != nil {
				st.count.mirrorFailed.Add(1)
			}
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	st.tr.end(sub)
}

// tracedProber is the query.Prober the mirror plans against: it times
// each per-shard call into the read cache.
type tracedProber struct {
	st     *stack
	parent *span
}

func (p *tracedProber) NumShards() int        { return p.st.mcache.NumShards() }
func (p *tracedProber) ShardFor(v uint64) int { return p.st.mcache.ShardFor(v) }
func (p *tracedProber) ProbeShard(i int, probes []query.Probe, out []int64) {
	sp := p.st.tr.start("rcache", "probe_shard", p.parent, 0)
	p.st.cacheSp[i] = sp // distinct shards run concurrently on distinct slots
	p.st.mcache.ProbeShard(i, probes, out)
	p.st.tr.end(sp)
	p.st.count.cacheCalls.Add(1)
}

// tracedBackend is the rcache.Backend under the mirror's cache: the
// served summary, timed per shard call (read-lock wait included).
type tracedBackend struct{ st *stack }

func (b *tracedBackend) NumShards() int            { return b.st.sum.NumShards() }
func (b *tracedBackend) ShardFor(v uint64) int     { return b.st.sum.ShardFor(v) }
func (b *tracedBackend) ShardVersion(i int) uint64 { return b.st.sum.ShardVersion(i) }
func (b *tracedBackend) ProbeShard(i int, probes []query.Probe, out []int64) {
	sp := b.st.tr.start("shard", "probe_shard", b.st.cacheSp[i], 0)
	b.st.sum.ProbeShard(i, probes, out)
	b.st.tr.end(sp)
	b.st.count.backendCalls.Add(1)
	b.st.count.backendProbes.Add(int64(len(probes)))
}

// tracedAnalytics times the sketch-served query kinds.
type tracedAnalytics struct {
	st     *stack
	parent *span
}

func (a tracedAnalytics) HeavyHitters(dir string, k int) []query.Entry {
	sp := a.st.tr.start("analytics", "query", a.parent, 0)
	defer a.st.tr.end(sp)
	return a.st.eng.HeavyHitters(dir, k)
}

func (a tracedAnalytics) Bursts(k int) []query.Entry {
	sp := a.st.tr.start("analytics", "query", a.parent, 0)
	defer a.st.tr.end(sp)
	return a.st.eng.Bursts(k)
}

// tracedObserver times the analytics engine's upkeep inside the served
// summary's write-lock section and counts the shard applies it sees.
type tracedObserver struct{ st *stack }

func (o *tracedObserver) ObserveApply(i int, edges []stream.Edge) {
	sp := o.st.tr.start("analytics", "observe", nil, 0)
	o.st.eng.ObserveApply(i, edges)
	o.st.tr.end(sp)
	o.st.count.applyCalls.Add(1)
	o.st.count.applyEdges.Add(int64(len(edges)))
}

func (o *tracedObserver) ObserveDelete(i int, e stream.Edge) { o.st.eng.ObserveDelete(i, e) }
func (o *tracedObserver) ObserveExpire(i int, c int64)       { o.st.eng.ObserveExpire(i, c) }
