package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/ingest"
	"higgs/internal/metrics"
	"higgs/internal/repl"
	"higgs/internal/server"
	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// replWait bounds every follower catch-up in the experiment; a follower
// that cannot reach the primary's frontier in this long is a bug, not a
// slow runner.
const replWait = 60 * time.Second

// Replication is the WAL-shipping replication gate (internal/repl,
// DESIGN.md §15), run in CI: at 1/2/4/8 shards it stands up a WAL-backed
// primary serving its replication feed over HTTP and hard-fails (an
// error, not a warning) unless a follower's summary is byte-for-byte
// identical to the primary's at the primary's last sequence, for each of
// three join paths:
//
//   - cold: the follower joins after the whole stream (edges plus an
//     interleaved expire) is durable and catches up by pure WAL tailing;
//   - snap+tail: the primary snapshots and truncates mid-stream first, so
//     the follower must boot from /repl/snapshot and tail the rest;
//   - restart: a follower with a local cache dir is abandoned mid-stream
//     (no orderly cache refresh — exactly the state a kill -9 leaves) and
//     a second incarnation resumes from the stale cache, replaying records
//     the first already applied; the per-shard watermarks must deduplicate
//     the overlap exactly.
//
// The comparison serializes both summaries without finalizing, so it also
// covers the per-shard watermarks — sequence equality, not just tree
// equality. Catch-up throughput is recorded per shard count; read
// scale-out (one vs two read-only replicas answering /v2/query) is
// measured once per dataset and emitted in the artifact. Throughput and
// scaling numbers on shared runners are informational; the byte-identity
// columns are the assertion.
func Replication(o Options) error {
	o.fill()
	fmt.Fprintln(o.Out, "== Extra: WAL-shipping replication — follower byte-equality + read scale-out (internal/repl) ==")
	t := metrics.NewTable("dataset", "shards", "edges", "catch-up", "cold", "snap+tail", "restart")
	dss, err := o.datasets()
	if err != nil {
		return err
	}
	for _, ds := range dss {
		for _, n := range shardCounts {
			eps, err := replCold(ds, n, uint64(o.Seed))
			if err != nil {
				return err
			}
			if err := replSnapTail(ds, n, uint64(o.Seed)); err != nil {
				return err
			}
			if err := replRestart(ds, n, uint64(o.Seed)); err != nil {
				return err
			}
			o.record(fmt.Sprintf("%s_s%d_catchup_eps", ds.Name, n), eps)
			t.AddRow(ds.Name, fmt.Sprint(n), fmt.Sprint(len(ds.Stream)),
				metrics.FormatEPS(eps), "byte-equal", "byte-equal", "byte-equal")
		}
		q1, q2, err := replReadScaling(ds, 4, uint64(o.Seed))
		if err != nil {
			return err
		}
		o.record(ds.Name+"_read_qps_r1", q1)
		o.record(ds.Name+"_read_qps_r2", q2)
		o.record(ds.Name+"_read_scaling", q2/q1)
		fmt.Fprintf(o.Out, "%s read scale-out (4 shards, /v2/query): 1 replica %s q/s, 2 replicas %s q/s (×%.2f)\n",
			ds.Name, metrics.FormatEPS(q1), metrics.FormatEPS(q2), q2/q1)
	}
	return t.Render(o.Out)
}

// replRig is a WAL-backed primary plus its replication feed: sync-mode
// pipeline (every Submit durable before returning) over small segments
// (so mid-stream snapshots have whole segments to truncate), served by an
// httptest server.
type replRig struct {
	dir  string
	log  *wal.Log
	sum  *shard.Summary
	pipe *ingest.Pipeline
	srv  *httptest.Server
}

func newReplRig(n int, seed uint64) (*replRig, error) {
	dir, err := os.MkdirTemp("", "higgs-replication-*")
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "wal"), SegmentBytes: 1 << 16})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sum, err := shard.New(walShardConfig(n, seed))
	if err != nil {
		log.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	pipe, err := ingest.New(sum, ingest.Config{Mode: ingest.ModeSync, WAL: log})
	if err != nil {
		sum.Close()
		log.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &replRig{
		dir:  dir,
		log:  log,
		sum:  sum,
		pipe: pipe,
		srv:  httptest.NewServer(repl.NewPrimary(sum, log).Handler()),
	}, nil
}

func (r *replRig) close() {
	r.srv.Close()
	r.pipe.Close()
	r.log.Close()
	r.sum.Close()
	os.RemoveAll(r.dir)
}

// snap takes one snapshot and truncates the covered WAL prefix, exactly
// like the production background snapshotter.
func (r *replRig) snap() error {
	snapper := ingest.NewSnapshotter(r.sum, r.pipe, r.log, filepath.Join(r.dir, "snapshot.higgs"), 0, nil)
	defer snapper.Close()
	return snapper.Snap()
}

// feed submits st[lo:hi] in WAL-sized batches, interleaving one expire
// mid-range when cutoff is nonzero — so the shipped log carries both
// record types.
func (r *replRig) feed(st stream.Stream, lo, hi int, cutoff int64) error {
	mid := (lo + hi) / 2
	for at := lo; at < hi; at += walBatch {
		end := at + walBatch
		if end > hi {
			end = hi
		}
		if err := submitRetry(r.pipe, st[at:end]); err != nil {
			return err
		}
		if cutoff != 0 && at <= mid && mid < end {
			if _, err := r.pipe.Expire(cutoff); err != nil {
				return err
			}
		}
	}
	return nil
}

// liveBytes serializes a summary without finalizing, so a live primary
// and its replica stay comparable mid-stream (and the comparison covers
// the per-shard watermarks).
func liveBytes(s *shard.Summary) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// startFollower boots a follower of the rig with bench-scale cadences.
func startFollower(r *replRig, dir string) (*repl.Follower, error) {
	f, err := repl.NewFollower(repl.FollowerConfig{
		Source:        r.srv.URL,
		Dir:           dir,
		PollWait:      100 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		return nil, err
	}
	return f, nil
}

// converge waits for the follower to reach the primary's last sequence
// and byte-compares the two summaries there.
func converge(r *replRig, f *repl.Follower) error {
	target := r.log.LastSeq()
	if !f.WaitApplied(target, replWait) {
		return fmt.Errorf("follower stuck at seq %d, want %d", f.Status().AppliedSeq, target)
	}
	want, err := liveBytes(r.sum)
	if err != nil {
		return err
	}
	got, err := liveBytes(f.Summary())
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("follower summary at seq %d diverges from primary (%d vs %d bytes)",
			target, len(got), len(want))
	}
	return nil
}

// replCold: the whole stream is durable before the follower joins; catch-up
// is pure WAL tailing (the log was never truncated). Returns the catch-up
// throughput in edges/s.
func replCold(ds *Dataset, n int, seed uint64) (float64, error) {
	fail := func(err error) (float64, error) {
		return 0, fmt.Errorf("bench: replication %d (cold): %w", n, err)
	}
	r, err := newReplRig(n, seed)
	if err != nil {
		return fail(err)
	}
	defer r.close()
	if err := r.feed(ds.Stream, 0, len(ds.Stream), ds.Stream[len(ds.Stream)/8].T); err != nil {
		return fail(err)
	}
	start := time.Now()
	f, err := startFollower(r, "")
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	if err := converge(r, f); err != nil {
		return fail(err)
	}
	eps := metrics.Throughput(int64(len(ds.Stream)), time.Since(start))
	if st := f.Status(); st.Resyncs != 0 {
		return fail(fmt.Errorf("cold catch-up needed %d resyncs", st.Resyncs))
	} else if st.AppliedSeq == 0 {
		return fail(fmt.Errorf("vacuous: follower applied nothing"))
	}
	return eps, nil
}

// replSnapTail: the primary snapshots and truncates mid-stream, so the
// follower must boot from /repl/snapshot and tail only the rest.
func replSnapTail(ds *Dataset, n int, seed uint64) error {
	fail := func(err error) error {
		return fmt.Errorf("bench: replication %d (snap+tail): %w", n, err)
	}
	r, err := newReplRig(n, seed)
	if err != nil {
		return fail(err)
	}
	defer r.close()
	half := len(ds.Stream) / 2
	if err := r.feed(ds.Stream, 0, half, ds.Stream[len(ds.Stream)/8].T); err != nil {
		return fail(err)
	}
	if err := r.snap(); err != nil {
		return fail(err)
	}
	if floor := r.log.FirstSeq(); floor <= 1 {
		return fail(fmt.Errorf("vacuous: truncation left floor %d; boot would not exercise the snapshot", floor))
	}
	f, err := startFollower(r, "")
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	if err := r.feed(ds.Stream, half, len(ds.Stream), 0); err != nil {
		return fail(err)
	}
	if err := converge(r, f); err != nil {
		return fail(err)
	}
	if st := f.Status(); st.Resyncs != 0 {
		return fail(fmt.Errorf("snapshot boot needed %d resyncs", st.Resyncs))
	}
	return nil
}

// replRestart: a follower with a local cache dir applies past its boot
// cache and is abandoned without any orderly cache refresh — the state a
// kill -9 leaves. A second incarnation must resume from the stale cache,
// replay the overlap without double-applying (per-shard watermarks), and
// converge byte-identically, with no snapshot re-fetch.
func replRestart(ds *Dataset, n int, seed uint64) error {
	fail := func(err error) error {
		return fmt.Errorf("bench: replication %d (restart): %w", n, err)
	}
	r, err := newReplRig(n, seed)
	if err != nil {
		return fail(err)
	}
	defer r.close()
	dir, err := os.MkdirTemp("", "higgs-replica-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	half := len(ds.Stream) / 2
	if err := r.feed(ds.Stream, 0, half, ds.Stream[len(ds.Stream)/8].T); err != nil {
		return fail(err)
	}
	f1, err := startFollower(r, dir)
	if err != nil {
		return fail(err)
	}
	if !f1.WaitApplied(r.log.LastSeq(), replWait) {
		f1.Close()
		return fail(fmt.Errorf("first incarnation stuck at seq %d", f1.Status().AppliedSeq))
	}
	// More durable records arrive and are applied past the boot cache...
	if err := r.feed(ds.Stream, half, half+half/2, 0); err != nil {
		f1.Close()
		return fail(err)
	}
	if !f1.WaitApplied(r.log.LastSeq(), replWait) {
		f1.Close()
		return fail(fmt.Errorf("first incarnation stuck at seq %d", f1.Status().AppliedSeq))
	}
	diedAt := f1.Status().AppliedSeq
	f1.Close() // no cache refresh: on-disk state is exactly a kill -9's

	if err := r.feed(ds.Stream, half+half/2, len(ds.Stream), 0); err != nil {
		return fail(err)
	}
	f2, err := startFollower(r, dir)
	if err != nil {
		return fail(err)
	}
	defer f2.Close()
	if boot := f2.Status().AppliedSeq; boot >= diedAt {
		return fail(fmt.Errorf("vacuous: restart booted at seq %d, want a stale cache below %d (no overlap to deduplicate)", boot, diedAt))
	}
	if err := converge(r, f2); err != nil {
		return fail(err)
	}
	if st := f2.Status(); st.Resyncs != 0 {
		return fail(fmt.Errorf("restart resume needed %d resyncs", st.Resyncs))
	}
	return nil
}

// replReadScaling measures /v2/query throughput against one vs two
// read-only replicas of the same primary, each a converged follower
// served by a read-only server.Server. Returns queries/s for both pool sizes.
func replReadScaling(ds *Dataset, n int, seed uint64) (q1, q2 float64, err error) {
	fail := func(err error) (float64, float64, error) {
		return 0, 0, fmt.Errorf("bench: replication read scale-out: %w", err)
	}
	r, err := newReplRig(n, seed)
	if err != nil {
		return fail(err)
	}
	defer r.close()
	if err := r.feed(ds.Stream, 0, len(ds.Stream), 0); err != nil {
		return fail(err)
	}
	var pool []*httptest.Server
	for i := 0; i < 2; i++ {
		f, err := startFollower(r, "")
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := converge(r, f); err != nil {
			return fail(err)
		}
		srv, err := server.New(f.Summary(), server.Config{Replica: true})
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		pool = append(pool, ts)
	}
	body := replQueryBody(ds)
	if q1, err = replQPS(pool[:1], body); err != nil {
		return fail(err)
	}
	if q2, err = replQPS(pool, body); err != nil {
		return fail(err)
	}
	return q1, q2, nil
}

// replQueryBody builds one /v2/query batch of edge queries drawn from the
// dataset's own edges.
func replQueryBody(ds *Dataset) string {
	span := ds.Stats.Span()
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < 64; i++ {
		e := ds.Stream[(i*2654435761)%len(ds.Stream)]
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"kind":"edge","s":%d,"d":%d,"ts":%d,"te":%d}`,
			e.S, e.D, e.T-span/4, e.T+span/4)
	}
	b.WriteByte(']')
	return b.String()
}

// replQPS drives the replica pool with concurrent clients for a fixed
// window, spreading clients round-robin, and returns queries/s (each
// /v2/query batch counts as one query).
func replQPS(pool []*httptest.Server, body string) (float64, error) {
	const clients = 8
	const window = 400 * time.Millisecond
	var (
		count atomic.Int64
		fails atomic.Int64
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			url := pool[c%len(pool)].URL + "/v2/query"
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					fails.Add(1)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fails.Add(1)
					return
				}
				count.Add(1)
			}
		}(c)
	}
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if fails.Load() > 0 || count.Load() == 0 {
		return 0, fmt.Errorf("%d failed queries, %d ok", fails.Load(), count.Load())
	}
	return metrics.Throughput(count.Load(), elapsed), nil
}
