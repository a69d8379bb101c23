// Command higgsd serves a sharded HIGGS summary over HTTP — a minimal
// graph stream summarization service.
//
//	higgsd -addr :8080
//	higgsd -addr :8080 -shards 8 -load summary.higgs -save summary.higgs
//	higgsd -ingest-mode async -queue-depth 8192 -commit-interval 2ms
//
// The summary is hash-partitioned by source vertex across -shards
// independent HIGGS trees (0 = one per CPU), so concurrent inserts and
// queries touching different shards never contend; see internal/shard.
// Writes POSTed to /v1/ingest go through the asynchronous group-commit
// pipeline (internal/ingest, DESIGN.md §9) configured by -ingest-mode,
// -queue-depth, and -commit-interval; /v1/insert stays synchronous.
//
// API (see internal/server and README "Running the server"):
//
//	POST /v1/insert    [{"s":1,"d":2,"w":1,"t":100}, ...]   (synchronous)
//	POST /v1/ingest    [{"s":1,"d":2,"w":1,"t":100}, ...]   (202/429, group commit)
//	POST /v1/flush     (barrier: 202-accepted edges become visible)
//	POST /v1/expire    {"cutoff":100}   (sequenced, WAL-logged retention)
//	POST /v1/delete    {"s":1,"d":2,"w":1,"t":100}
//	GET  /v1/edge?s=1&d=2&ts=0&te=200
//	GET  /v1/vertex?v=1&dir=out&ts=0&te=200
//	GET  /v1/path?v=1,2,3&ts=0&te=200
//	POST /v1/subgraph  {"edges":[[1,2],[2,3]],"ts":0,"te":200}
//	POST /v2/query     [{"kind":"edge","s":1,"d":2,"ts":0,"te":200}, ...]
//	                   (batch: ≤ 1 read-lock acquisition per shard, per-item errors)
//	GET  /healthz      (load-balancer probe: shard count + ingest mode, no locks)
//	GET  /v1/stats
//	GET  /v1/snapshot  (binary download)   POST /v1/snapshot (restore)
//
// Snapshots are written in the sharded framing; -load also accepts legacy
// unsharded snapshots, which come up as a single shard.
//
// Durability (DESIGN.md §12): with -wal-dir, /v1/ingest appends every
// accepted batch to a segmented write-ahead log in that directory and
// fsyncs before responding 202, so accepted edges survive a crash — not
// just an orderly shutdown. -snapshot-interval adds periodic background
// snapshots (written atomically to <wal-dir>/snapshot.higgs) after which
// the log's covered segments are truncated. On startup higgsd recovers by
// loading the latest snapshot and replaying the log tail. The WAL owns the
// durable state: -load is rejected alongside -wal-dir, and POST
// /v1/snapshot answers 409.
//
//	higgsd -wal-dir /var/lib/higgs -snapshot-interval 30s
//
// Retention (DESIGN.md §13): -retention-window runs a background loop
// expiring everything older than now−window every -retention-interval
// (default window/10). Expires go through the ingest pipeline, so they
// are sequenced against in-flight batches and — with -wal-dir — recorded
// in the log and fsync'd: crash recovery replays them at exactly their
// point in the stream, and expired edges stay expired. /healthz reports
// the loop's counters in its "retention" field.
//
//	higgsd -wal-dir /var/lib/higgs -retention-window 24h -retention-interval 1m
//
// Read caching & admission control (DESIGN.md §16): -cache-bytes installs
// a watermark-invalidated read cache on the query planner seam — repeated
// probes against unmutated shards are answered without taking any shard
// read lock, and every applied write advances the shard's mutation version
// so a hit is provably identical to an uncached probe (no TTLs).
// -admit-heavy and -admit-rate enable admission control above the planner:
// queries are classified cheap/heavy by planned probe count, each class
// runs under its own concurrency budget with a bounded wait queue, and
// per-client token buckets shed sustained overload with 429 + Retry-After.
// /healthz reports both subsystems' counters.
//
//	higgsd -cache-bytes 67108864 -admit-heavy 4 -admit-rate 200
//
// Stream analytics (DESIGN.md §17): -analytics maintains per-shard
// count-min sketches and bounded candidate sets inside the committer apply
// path — every write entry point (sync insert, group commit, WAL replay,
// replication apply, delete) updates them under the same shard write lock
// that applies the edges, so the sketches can never drift from the served
// summary. They answer four additional /v2/query kinds: "heavy_hitters"
// and "burst" in O(k) without touching a shard lock, and "delta_vertex" /
// "delta_edge" (two-window change ranking) through the normal batch
// planner, read cache, and admission control. -analytics-topk sizes the
// tracked candidate sets, -analytics-epoch and -analytics-burst tune burst
// detection. /healthz reports the engine's counters in its "analytics"
// field. Works on primaries and followers alike.
//
//	higgsd -analytics -analytics-topk 256 -analytics-epoch 30s -analytics-burst 8
//
// Replication (DESIGN.md §15): -replication-addr serves the WAL-shipping
// feed (/repl/info, /repl/snapshot, /repl/wal) on a separate, private
// listener. A follower started with -replicate-from boots from the
// primary's snapshot (or its -replica-dir local cache), tails durable
// records, and serves every read endpoint — /v1 queries, /v2/query,
// snapshot download — while answering 403 on writes. /healthz reports
// role, applied sequence, and lag in its "replication" field.
//
//	higgsd -wal-dir /var/lib/higgs -replication-addr 127.0.0.1:9090
//	higgsd -addr :8081 -replicate-from http://127.0.0.1:9090 -replica-dir /var/lib/higgs-replica
//
// Every role is assembled by one function. The role decides only where the
// summary comes from (-load, WAL recovery, or a follower's boot), which
// background workers run, and which replication status /healthz reports;
// the read path, the analytics engine, pprof, the listener and the
// shutdown sequence are shared, built from one server.Config.
//
// On SIGINT/SIGTERM the server stops accepting connections, stops the
// replication feed or tail, drains the ingest pipeline (every 202-accepted
// batch is applied), writes a final snapshot into -wal-dir (truncating the
// log), and, if -save is set, writes and fsyncs a snapshot there too — so
// accepted edges survive an orderly shutdown even without a WAL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"higgs/internal/admit"
	"higgs/internal/analytics"
	"higgs/internal/ingest"
	"higgs/internal/repl"
	"higgs/internal/server"
	"higgs/internal/shard"
	"higgs/internal/wal"
)

// snapshotName is the snapshot file maintained inside -wal-dir.
const snapshotName = "snapshot.higgs"

func main() {
	o := newOptions(flag.CommandLine)
	flag.Parse()
	if o.version {
		fmt.Printf("higgsd %s\n", server.BuildVersion())
		return
	}
	if err := o.validate(); err != nil {
		log.Fatalf("higgsd: %v", err)
	}
	d, err := assemble(o)
	if err != nil {
		log.Fatalf("higgsd: %v", err)
	}
	d.run()
}

// options are higgsd's flags.
type options struct {
	addr, load, save, mode, walDir, pprof string
	shards, depth                         int
	commit, walSync, snapIvl              time.Duration
	retWin, retIvl                        time.Duration

	replAddr, replFrom, replicaDir string

	anaOn    bool
	anaTopK  int
	anaEpoch time.Duration
	anaBurst float64

	cacheBytes int64
	admitHeavy int
	admitRate  float64
	version    bool

	// imode is the parsed -ingest-mode, set by validate.
	imode ingest.Mode
}

// newOptions registers higgsd's flags on fs.
func newOptions(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.shards, "shards", 0, "summary shard count (0 = one per CPU)")
	fs.StringVar(&o.load, "load", "", "snapshot file to restore at startup")
	fs.StringVar(&o.save, "save", "", "snapshot file to write on shutdown")
	fs.StringVar(&o.mode, "ingest-mode", "auto", `/v1/ingest admission: "sync", "async", or "auto"`)
	fs.IntVar(&o.depth, "queue-depth", 4096, "per-shard async ingest queue capacity (edges)")
	fs.DurationVar(&o.commit, "commit-interval", 0, "group-commit accumulation window (0 = apply as soon as possible)")
	fs.StringVar(&o.walDir, "wal-dir", "", "durable state directory: write-ahead log segments + snapshot.higgs (empty = no crash durability)")
	fs.DurationVar(&o.walSync, "wal-sync-interval", 0, "WAL group-fsync accumulation window — bounds how long a 202 waits for its fsync (0 = sync as soon as dirty)")
	fs.DurationVar(&o.snapIvl, "snapshot-interval", 0, "background snapshot cadence; requires -wal-dir (0 = snapshot only on shutdown)")
	fs.DurationVar(&o.retWin, "retention-window", 0, "sliding retention window: periodically expire edges older than now minus this (0 = keep everything)")
	fs.DurationVar(&o.retIvl, "retention-interval", 0, "retention loop cadence; requires -retention-window (0 = window/10, at least 1s)")
	fs.StringVar(&o.pprof, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled); keep it private — profiles expose internals")

	fs.StringVar(&o.replAddr, "replication-addr", "", "serve the WAL-shipping replication feed (/repl/*) on this address; requires -wal-dir (empty = disabled); keep it private — it ships the raw log")
	fs.StringVar(&o.replFrom, "replicate-from", "", "run as a read-only follower of this primary replication URL (e.g. http://primary:9090): reads served, writes answer 403")
	fs.StringVar(&o.replicaDir, "replica-dir", "", "follower state directory holding the local snapshot cache, so restarts resume from disk; requires -replicate-from")

	fs.BoolVar(&o.anaOn, "analytics", false, "enable the stream-analytics subsystem: heavy-hitter/burst sketches maintained in the committer apply path, served by the delta_vertex/delta_edge/heavy_hitters/burst kinds of /v2/query (DESIGN.md §17)")
	fs.IntVar(&o.anaTopK, "analytics-topk", 0, "tracked heavy-hitter candidates per shard and direction (0 = 128); requires -analytics")
	fs.DurationVar(&o.anaEpoch, "analytics-epoch", 0, "burst-detection epoch length, whole seconds (0 = 1m); requires -analytics")
	fs.Float64Var(&o.anaBurst, "analytics-burst", 0, "burst threshold: flag a vertex when its current-epoch weight reaches this multiple of its recent-epoch average (0 = 4.0); requires -analytics")

	fs.Int64Var(&o.cacheBytes, "cache-bytes", 0, "watermark-invalidated read cache byte budget across all shards (0 = disabled, minimum 64KiB)")
	fs.IntVar(&o.admitHeavy, "admit-heavy", 0, "concurrent heavy-query budget; enables admission control (0 = class budgets at defaults unless -admit-rate set)")
	fs.Float64Var(&o.admitRate, "admit-rate", 0, "per-client sustained queries/sec token-bucket rate; enables admission control (0 = no per-client rate limit)")
	fs.BoolVar(&o.version, "version", false, "print the build version and exit")
	return o
}

// validate rejects flag values and combinations higgsd cannot serve, and
// resolves -ingest-mode.
func (o *options) validate() error {
	imode, err := ingest.ParseMode(o.mode)
	if err != nil {
		return fmt.Errorf("-ingest-mode: %v", err)
	}
	o.imode = imode
	if o.depth <= 0 {
		// Config treats 0 as "use the default"; an operator passing 0
		// expects no buffering, which the pipeline does not offer.
		return fmt.Errorf("-queue-depth %d, need ≥ 1", o.depth)
	}
	switch {
	case o.snapIvl < 0:
		return fmt.Errorf("-snapshot-interval %v, need ≥ 0", o.snapIvl)
	case o.walSync < 0:
		return fmt.Errorf("-wal-sync-interval %v, need ≥ 0", o.walSync)
	case o.walDir != "" && o.load != "":
		return errors.New("-load conflicts with -wal-dir (the WAL directory owns its snapshot; remove -load)")
	case o.retWin < 0:
		return fmt.Errorf("-retention-window %v, need ≥ 0", o.retWin)
	case o.retIvl < 0:
		return fmt.Errorf("-retention-interval %v, need ≥ 0", o.retIvl)
	case o.retIvl > 0 && o.retWin == 0:
		return errors.New("-retention-interval requires -retention-window")
	case o.replAddr != "" && o.walDir == "":
		return errors.New("-replication-addr requires -wal-dir (the feed ships the write-ahead log)")
	case o.replicaDir != "" && o.replFrom == "":
		return errors.New("-replica-dir requires -replicate-from")
	case o.replFrom != "" && o.walDir != "":
		return errors.New("-replicate-from conflicts with -wal-dir (a follower's durable state is its primary; use -replica-dir for the local cache)")
	case o.replFrom != "" && o.load != "":
		return errors.New("-replicate-from conflicts with -load (the boot snapshot comes from the primary)")
	case o.replFrom != "" && o.shards != 0:
		return errors.New("-replicate-from conflicts with -shards (the primary's snapshot fixes the shard count)")
	case o.replFrom != "" && o.retWin > 0:
		return errors.New("-replicate-from conflicts with -retention-window (retention runs on the primary and replicates as expire records)")
	case o.replFrom != "" && o.replAddr != "":
		return errors.New("-replicate-from conflicts with -replication-addr (chained replication is not supported)")
	case o.snapIvl > 0 && o.walDir == "" && o.replicaDir == "":
		return errors.New("-snapshot-interval requires -wal-dir (or -replica-dir on a follower)")
	case o.cacheBytes < 0:
		return fmt.Errorf("-cache-bytes %d, need ≥ 0", o.cacheBytes)
	case o.admitHeavy < 0:
		return fmt.Errorf("-admit-heavy %d, need ≥ 0", o.admitHeavy)
	case o.admitRate < 0:
		return fmt.Errorf("-admit-rate %v, need ≥ 0", o.admitRate)
	case !o.anaOn && (o.anaTopK != 0 || o.anaEpoch != 0 || o.anaBurst != 0):
		return errors.New("-analytics-topk/-analytics-epoch/-analytics-burst require -analytics")
	case o.anaTopK < 0:
		return fmt.Errorf("-analytics-topk %d, need ≥ 0", o.anaTopK)
	case o.anaEpoch != 0 && o.anaEpoch < time.Second:
		return fmt.Errorf("-analytics-epoch %v, need whole seconds ≥ 1s (or 0 for the default)", o.anaEpoch)
	case o.anaBurst != 0 && o.anaBurst < 1:
		return fmt.Errorf("-analytics-burst %v, need ≥ 1 (or 0 for the default)", o.anaBurst)
	}
	return nil
}

// daemon is one assembled higgsd. Worker fields are nil when the role does
// not run that worker.
type daemon struct {
	o     *options
	srv   *server.Server
	snapP string // <wal-dir>/snapshot.higgs

	wlog     *wal.Log
	snapper  *ingest.Snapshotter
	retainer *ingest.Retainer
	feed     *http.Server // a primary's replication feed
	follower *repl.Follower
	// ready is closed once srv is set: a follower's resync can fire as
	// soon as its tail loop starts, before the server exists.
	ready chan struct{}
}

// assemble builds the summary, the server and the background workers for
// the role the flags select.
func assemble(o *options) (*daemon, error) {
	d := &daemon{o: o, ready: make(chan struct{})}
	cfg := server.Config{Ingest: ingest.DefaultConfig(), CacheBytes: o.cacheBytes}
	cfg.Ingest.Mode, cfg.Ingest.QueueDepth, cfg.Ingest.CommitInterval = o.imode, o.depth, o.commit

	var sum *shard.Summary
	var err error
	switch {
	case o.replFrom != "":
		sum, err = d.bootFollower()
		cfg.Replica = true
		cfg.Replication = d.followerStatus
	case o.walDir != "":
		d.snapP = filepath.Join(o.walDir, snapshotName)
		sum, err = loadOrNewSummary(d.snapP, o.shards)
	default:
		sum, err = buildSummary(o.load, o.shards)
	}
	if err != nil {
		return nil, err
	}
	if o.anaOn {
		// Registered before WAL replay, so the sketches absorb recovered
		// edges exactly like live ones; a follower's boot snapshot is served
		// but not re-counted (DESIGN.md §17).
		eng, err := analytics.New(analytics.Config{
			Shards:       sum.NumShards(),
			Seed:         sum.Config().Core.Seed,
			TrackK:       o.anaTopK,
			EpochSeconds: int64(o.anaEpoch / time.Second),
			BurstFactor:  o.anaBurst,
		})
		if err != nil {
			return nil, fmt.Errorf("analytics: %w", err)
		}
		sum.SetApplyObserver(eng)
		cfg.Analytics = eng
		c := eng.Config()
		log.Printf("higgsd: analytics enabled (topk=%d epoch=%ds burst=%.1f)", c.TrackK, c.EpochSeconds, c.BurstFactor)
	}
	if o.walDir != "" {
		// Recovery: latest snapshot + WAL tail replay (DESIGN.md §12). The
		// WAL group-syncs on its own cadence (-wal-sync-interval): one fsync
		// covers everything accepted during the accumulation window,
		// mirroring the role -commit-interval plays for shard locks. The two
		// are separate knobs because every 202 waits for its covering fsync
		// — a long commit window must not hold admission hostage.
		if d.wlog, err = wal.Open(wal.Config{Dir: o.walDir, SyncInterval: o.walSync}); err != nil {
			return nil, err
		}
		replayed, err := ingest.Recover(sum, d.wlog)
		if err != nil {
			return nil, err
		}
		log.Printf("higgsd: recovered from %s (items=%d, wal replayed %d edges)", o.walDir, sum.Items(), replayed)
		cfg.Ingest.WAL = d.wlog
		cfg.Durability = d.durability
	}
	if o.admitHeavy > 0 || o.admitRate > 0 {
		if cfg.Admission, err = admit.New(admit.Config{HeavyConcurrency: o.admitHeavy, Rate: o.admitRate}); err != nil {
			return nil, err
		}
	}
	if o.retWin > 0 {
		cfg.Retention = d.retention
	}
	if o.replAddr != "" {
		cfg.Replication = d.primaryStatus
	}
	if d.srv, err = server.New(sum, cfg); err != nil {
		return nil, err
	}
	close(d.ready)
	if o.cacheBytes > 0 {
		log.Printf("higgsd: read cache enabled (%d bytes)", o.cacheBytes)
	}
	if cfg.Admission != nil {
		log.Printf("higgsd: admission control enabled (heavy=%d rate=%v/s)", o.admitHeavy, o.admitRate)
	}

	// Background workers. They start before the listener, so the /healthz
	// probes above never see a nil worker.
	if d.wlog != nil {
		d.snapper = ingest.NewSnapshotter(sum, d.srv.Pipeline(), d.wlog, d.snapP, o.snapIvl,
			func(err error) { log.Printf("higgsd: background snapshot: %v", err) })
		d.snapper.Start()
	}
	if o.retWin > 0 {
		// srv.Pipeline (not its value now): a snapshot upload swaps the
		// serving pipeline, and retention must follow the live one.
		d.retainer, err = ingest.NewRetainer(d.srv.Pipeline, ingest.RetentionConfig{
			Window:   o.retWin,
			Interval: o.retIvl,
			OnError:  func(err error) { log.Printf("higgsd: retention: %v", err) },
		})
		if err != nil {
			return nil, err
		}
		d.retainer.Start()
	}
	if o.replAddr != "" {
		// The replication feed gets its own listener: it ships raw WAL
		// bytes and whole snapshots, an operator surface never exposed
		// alongside the client API.
		d.feed = &http.Server{Addr: o.replAddr, Handler: repl.NewPrimary(sum, d.wlog).Handler()}
		go func() {
			log.Printf("higgsd: replication feed listening on %s", o.replAddr)
			if err := d.feed.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("higgsd: replication: %v", err)
			}
		}()
	}
	return d, nil
}

// bootFollower starts a replication follower (local cache or primary
// snapshot, then the WAL tail) and returns its booted summary. A resync —
// the primary truncated past our resume point — swaps the served summary
// via server.ReplaceSummary, which no-ops when the server was constructed
// on the swapped-in summary.
func (d *daemon) bootFollower() (*shard.Summary, error) {
	f, err := repl.NewFollower(repl.FollowerConfig{
		Source:           d.o.replFrom,
		Dir:              d.o.replicaDir,
		SnapshotInterval: d.o.snapIvl,
		OnError:          func(err error) { log.Printf("higgsd: replication: %v", err) },
		OnSwap: func(_, new *shard.Summary) {
			<-d.ready
			if err := d.srv.ReplaceSummary(new); err != nil {
				log.Printf("higgsd: resync swap: %v", err)
				return
			}
			log.Printf("higgsd: resynced from primary snapshot (items=%d)", new.Items())
		},
	})
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		return nil, fmt.Errorf("follower boot: %w", err)
	}
	d.follower = f
	return f.Summary(), nil
}

// durability is the /healthz probe of a WAL-backed primary.
func (d *daemon) durability() server.DurabilityStatus {
	st := server.DurabilityStatus{
		WAL:         true,
		AppendedSeq: d.wlog.LastSeq(),
		SyncedSeq:   d.wlog.SyncedSeq(),
		Segments:    d.wlog.Segments(),
		SnapshotSeq: d.snapper.LastSeq(),
	}
	if at := d.snapper.LastTime(); !at.IsZero() {
		st.SnapshotUnix = at.Unix()
	}
	return st
}

// retention is the /healthz probe of the background retention loop.
func (d *daemon) retention() server.RetentionStatus {
	st := server.RetentionStatus{
		Enabled:         true,
		WindowSeconds:   int64(d.retainer.Window() / time.Second),
		IntervalSeconds: int64(d.retainer.Interval() / time.Second),
		Runs:            d.retainer.Runs(),
		Dropped:         d.retainer.Dropped(),
		LastCutoff:      d.retainer.LastCutoff(),
	}
	if at := d.retainer.LastTime(); !at.IsZero() {
		st.LastUnix = at.Unix()
	}
	return st
}

// primaryStatus is the /healthz replication probe of a primary serving a
// feed.
func (d *daemon) primaryStatus() server.ReplicationStatus {
	return server.ReplicationStatus{Role: server.RolePrimary, PrimarySeq: d.wlog.SyncedSeq()}
}

// followerStatus is the /healthz replication probe of a follower.
func (d *daemon) followerStatus() server.ReplicationStatus {
	st := d.follower.Status()
	return server.ReplicationStatus{
		Role:       server.RoleFollower,
		Source:     st.Source,
		AppliedSeq: st.AppliedSeq,
		PrimarySeq: st.PrimarySeq,
		Lag:        st.Lag,
		Resyncs:    st.Resyncs,
	}
}

// run serves until SIGINT/SIGTERM, then shuts down in order: HTTP, the
// replication feed or tail, retention, the snapshot loop, the pipeline
// drain, the final snapshot, -save, and the WAL.
func (d *daemon) run() {
	o := d.o
	if o.pprof != "" {
		// The API server uses its own mux, so DefaultServeMux carries only
		// the pprof handlers — served on a separate listener that is never
		// exposed alongside the public API.
		go func() {
			log.Printf("higgsd: pprof listening on %s", o.pprof)
			if err := http.ListenAndServe(o.pprof, nil); err != nil {
				log.Printf("higgsd: pprof: %v", err)
			}
		}()
	}
	httpSrv := &http.Server{Addr: o.addr, Handler: d.srv.Handler()}
	go func() {
		sum := d.srv.Summary()
		if d.follower != nil {
			log.Printf("higgsd: follower of %s listening on %s (shards=%d items=%d applied_seq=%d)",
				o.replFrom, o.addr, sum.NumShards(), sum.Items(), d.follower.Status().AppliedSeq)
		} else {
			log.Printf("higgsd: listening on %s (shards=%d items=%d ingest=%s wal=%v)",
				o.addr, sum.NumShards(), sum.Items(), o.imode, d.wlog != nil)
		}
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("higgsd: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Println("higgsd: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("higgsd: shutdown: %v", err)
	}
	if d.feed != nil {
		if err := d.feed.Shutdown(ctx); err != nil {
			log.Printf("higgsd: replication shutdown: %v", err)
		}
	}
	if d.follower != nil {
		d.follower.Close() // stop tailing (and swapping) before touching the summary
	}
	if d.retainer != nil {
		d.retainer.Close() // no expires may race the drain or the final snapshot
	}
	if d.snapper != nil {
		d.snapper.Close() // stop the background loop before the final snapshot
	}
	// Drain accepted-but-uncommitted ingest batches before snapshotting:
	// a 202 means the edge survives an orderly shutdown.
	d.srv.Close()
	if d.snapper != nil {
		// Final covering snapshot: the next boot loads it and replays an
		// empty (truncated) tail.
		if err := d.snapper.Snap(); err != nil {
			log.Printf("higgsd: final snapshot: %v", err)
		} else {
			log.Printf("higgsd: snapshot saved to %s", d.snapP)
		}
	}
	if o.save != "" {
		if err := ingest.WriteSnapshot(d.srv.Summary(), o.save); err != nil {
			log.Fatalf("higgsd: save: %v", err)
		}
		log.Printf("higgsd: snapshot saved to %s", o.save)
	}
	if d.wlog != nil {
		if err := d.wlog.Close(); err != nil {
			log.Printf("higgsd: wal close: %v", err)
		}
	}
}

// loadOrNewSummary restores the summary at path, or builds a fresh one
// when no snapshot exists yet — the first boot of a WAL directory.
func loadOrNewSummary(path string, shards int) (*shard.Summary, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return buildSummary("", shards)
	}
	return buildSummary(path, shards)
}

func buildSummary(load string, shards int) (*shard.Summary, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		defer f.Close()
		sum, err := shard.Read(f)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", load, err)
		}
		// The snapshot fixes the shard count; an explicit conflicting
		// -shards is a configuration error, not something to silently
		// repartition (edges cannot move between trees after the fact).
		if shards > 0 && shards != sum.NumShards() {
			return nil, fmt.Errorf("load %s: snapshot has %d shards, -shards %d requested",
				load, sum.NumShards(), shards)
		}
		return sum, nil
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	return shard.New(cfg)
}
