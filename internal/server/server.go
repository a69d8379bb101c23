// Package server exposes a sharded HIGGS summary over HTTP as a small
// query service (DESIGN.md §10): stream items are POSTed in, TRQ
// primitives are GETs, and the snapshot codec is wired to download/upload
// endpoints so a summary can be moved between processes. cmd/higgsd is the
// thin binary around it; README "Running the server" documents every
// endpoint, status code, and flag.
//
// Concurrency is delegated to package shard: every mutation locks only the
// shards it touches and queries fan out under per-shard read locks, so
// requests hitting different shards proceed in parallel — there is no
// server-global lock (DESIGN.md §8).
//
// Reads have two surfaces over one engine. The /v1/* query endpoints take
// one question each; POST /v2/query takes a JSON array of them and answers
// the whole batch with at most one read-lock acquisition per shard
// (internal/query, DESIGN.md §11). Both run the same planner — every /v1
// query handler is a one-element batch — so the two surfaces can never
// disagree. /v2/query reports item-level problems (an unknown kind, an
// inverted window, a malformed item) per item in the response array; 400
// is reserved for a malformed envelope. GET /healthz is the load-balancer
// probe: it reports the serving configuration without touching a shard
// lock or any query path.
//
// Writes have two admission paths. /v1/insert is always synchronous: 200
// means the edges are applied and visible. /v1/ingest goes through the
// group-commit pipeline of package ingest (DESIGN.md §9): 202 means the
// batch is accepted and will be applied in order — durable for the
// process's lifetime, drained even on orderly shutdown, and guaranteed
// visible after a later POST /v1/flush returns — while 429 signals a full
// shard queue with nothing applied or enqueued, so the client may simply
// retry the identical batch. The one exception to 202 durability is a
// snapshot upload, which by design discards the entire served summary,
// accepted-but-uncommitted edges included.
//
// With a write-ahead log behind the pipeline (Config.Ingest.WAL, higgsd
// -wal-dir, DESIGN.md §12) the 202 contract strengthens from
// process-lifetime to crash durability: the batch is fsync'd before the
// response, GET /healthz reports the log's state through the Durability
// probe, and POST /v1/snapshot is rejected with 409 — the log owns the
// durable state, and swapping in a foreign summary would desynchronize its
// watermarks from the log's sequences.
//
// Retention is a write: POST /v1/expire drops everything wholly before a
// cutoff through the pipeline's sequenced (and, with a WAL, logged and
// fsync'd) expire path, so expired edges stay expired across a crash
// (DESIGN.md §13). higgsd's background retention loop uses the same path
// and reports its counters in /healthz's "retention" field.
//
// A Server is assembled once, from one Config: the ingest pipeline, the
// read-only replica switch, the read cache, admission control, the
// analytics engine, and the /healthz status probes. One builder turns a
// summary and the Config into the served state, at construction and again
// on every summary swap (snapshot upload, replica resync), so the
// swapped-together unit — summary, pipeline, cache, engine — can never
// disagree about which summary it belongs to.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/admit"
	"higgs/internal/analytics"
	"higgs/internal/httpapi"
	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// Edge is the JSON representation of one stream item.
type Edge struct {
	S uint64 `json:"s"`
	D uint64 `json:"d"`
	W int64  `json:"w"`
	T int64  `json:"t"`
}

// Config selects everything optional about a Server. The zero Config is a
// writable server with the default ingest pipeline and no optional
// subsystem. New validates every field up front.
type Config struct {
	// Ingest configures the /v1/ingest group-commit pipeline (cmd/higgsd
	// maps -ingest-mode, -queue-depth, -commit-interval and -wal-dir onto
	// it). A non-nil Ingest.WAL makes the log the owner of the durable
	// state: POST /v1/snapshot then answers 409. A replica ignores Ingest
	// and runs a sync-mode pipeline that no write ever reaches.
	Ingest ingest.Config
	// Replica makes the server a read-only replication follower: every
	// query endpoint works (the follower applies records under per-shard
	// write locks, exactly like ingest), every write endpoint answers 403,
	// and ReplaceSummary swaps in resynced summaries.
	Replica bool
	// CacheBytes is the budget of a watermark-invalidated result cache
	// over the served summary (DESIGN.md §16): 0 disables it, anything
	// else must be at least rcache.MinBytes. Every summary swap builds a
	// fresh cache, which is what busts it.
	CacheBytes int64
	// Admission, when non-nil, fronts every query endpoint. Shed requests
	// answer 429 with a Retry-After pacing hint; write and operational
	// endpoints are not admission-controlled (ingest has its own
	// backpressure).
	Admission *admit.Controller
	// Analytics is a stream-analytics engine (DESIGN.md §17) the caller has
	// already registered as the summary's apply observer — the server never
	// registers it, so a caller may register a wrapper around it instead.
	// Every summary swap builds a fresh engine from its Config(), with
	// Shards and Seed taken from the new summary, and registers that one;
	// the new summary's existing contents are not back-filled.
	Analytics *analytics.Engine
	// Durability, Retention and Replication are the probes /healthz calls
	// for its "durability", "retention" and "replication" fields. A nil
	// probe reports the zero status (RoleStandalone for replication).
	Durability  func() DurabilityStatus
	Retention   func() RetentionStatus
	Replication func() ReplicationStatus
}

// validate reports the first field of c that cannot serve sum.
func (c Config) validate(sum *shard.Summary) error {
	if err := c.Ingest.Validate(); err != nil {
		return err
	}
	if c.CacheBytes != 0 {
		if err := (rcache.Config{MaxBytes: c.CacheBytes}).Validate(); err != nil {
			return err
		}
	}
	if c.Analytics != nil && c.Analytics.Config().Shards != sum.NumShards() {
		return fmt.Errorf("server: analytics engine has %d shards, summary has %d",
			c.Analytics.Config().Shards, sum.NumShards())
	}
	return nil
}

// state is the swapped-together unit of serving state: a summary, the
// ingest pipeline feeding it, the read prober over it, and the config it
// was built with. A pipeline drains into exactly the summary it was built
// over, a cache is bound to exactly one summary's shard versions, and an
// engine mirrors exactly one summary's apply stream, so all of them change
// in the same atomic pointer swap (DESIGN.md §16–§17).
type state struct {
	cfg  Config
	sum  *shard.Summary
	pipe *ingest.Pipeline
	// read is the prober every query endpoint runs: the summary itself, or
	// cache when CacheBytes is set.
	read  query.Prober
	cache *rcache.Cache
}

// newState is the one builder of serving state. cfg has been validated,
// and cfg.Analytics (if any) already observes sum.
func newState(sum *shard.Summary, pipe *ingest.Pipeline, cfg Config) (*state, error) {
	st := &state{cfg: cfg, sum: sum, pipe: pipe, read: sum}
	if cfg.CacheBytes > 0 {
		c, err := rcache.New(sum, rcache.Config{MaxBytes: cfg.CacheBytes})
		if err != nil {
			return nil, err
		}
		st.cache, st.read = c, c
	}
	return st, nil
}

// Server wraps a sharded HIGGS summary with an HTTP API. The served state
// is replaced atomically on a summary swap, so in-flight requests always
// see one consistent summary.
type Server struct {
	st atomic.Pointer[state]
	// mu serializes every state change — swaps, the kept setters, Close —
	// so each one rebuilds from the state the previous one published.
	mu     sync.Mutex
	closed atomic.Bool
	start  time.Time
}

// New returns a server over the given sharded summary, assembled from cfg.
func New(sum *shard.Summary, cfg Config) (*Server, error) {
	if cfg.Replica {
		cfg.Ingest = ingest.Config{Mode: ingest.ModeSync}
	}
	if err := cfg.validate(sum); err != nil {
		return nil, err
	}
	pipe, err := ingest.New(sum, cfg.Ingest)
	if err != nil {
		return nil, err
	}
	st, err := newState(sum, pipe, cfg)
	if err != nil {
		pipe.Close()
		return nil, err
	}
	s := &Server{start: time.Now()}
	s.st.Store(st)
	return s, nil
}

// NewWithIngest is New(sum, Config{Ingest: icfg}). It is kept for the
// benchmark module (loadbench), which builds against this signature.
func NewWithIngest(sum *shard.Summary, icfg ingest.Config) (*Server, error) {
	return New(sum, Config{Ingest: icfg})
}

// SetReadCache sets Config.CacheBytes on a constructed server and rebuilds
// the served state with a fresh cache (or none, with maxBytes 0). It is
// kept for the benchmark module (loadbench); new code sets the field.
func (s *Server) SetReadCache(maxBytes int64) error {
	return s.reconfigure(func(c *Config) { c.CacheBytes = maxBytes })
}

// SetAdmission sets Config.Admission on a constructed server (nil removes
// it). It is kept for the benchmark module (loadbench); new code sets the
// field.
func (s *Server) SetAdmission(c *admit.Controller) {
	_ = s.reconfigure(func(cfg *Config) { cfg.Admission = c }) // a controller never fails validation
}

// SetAnalyticsEngine sets Config.Analytics on a constructed server: eng
// must already observe the served summary. It is kept for the benchmark
// module (loadbench), which registers a tracing wrapper around eng; new
// code sets the field.
func (s *Server) SetAnalyticsEngine(eng *analytics.Engine) {
	if err := s.reconfigure(func(c *Config) { c.Analytics = eng }); err != nil {
		panic(err) // an engine sized for another summary is a caller bug
	}
}

// reconfigure applies fn to the served config and rebuilds the state over
// the same summary and pipeline.
func (s *Server) reconfigure(fn func(*Config)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.st.Load()
	cfg := old.cfg
	fn(&cfg)
	if err := cfg.validate(old.sum); err != nil {
		return err
	}
	st, err := newState(old.sum, old.pipe, cfg)
	if err != nil {
		return err
	}
	s.st.Store(st)
	return nil
}

// swap serves sum in place of the current summary — the one path snapshot
// upload and ReplaceSummary share. The new state is built by newState
// with the served config; an analytics engine is rebuilt for sum and
// registered before the state is published, so it sees every apply sum
// receives once served. The old pipeline then drains into the old summary
// before both close: requests already accepted complete their contract
// against the summary they targeted, even though it is being discarded.
func (s *Server) swap(sum *shard.Summary) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.st.Load()
	if old.sum == sum {
		return nil
	}
	cfg := old.cfg
	if cfg.Analytics != nil {
		acfg := cfg.Analytics.Config()
		acfg.Shards, acfg.Seed = sum.NumShards(), sum.Config().Core.Seed
		eng, err := analytics.New(acfg)
		if err != nil {
			return err
		}
		cfg.Analytics = eng
	}
	pipe, err := ingest.New(sum, cfg.Ingest)
	if err != nil {
		return err
	}
	st, err := newState(sum, pipe, cfg)
	if err != nil {
		pipe.Close()
		return err
	}
	if cfg.Analytics != nil {
		sum.SetApplyObserver(cfg.Analytics)
	}
	s.st.Store(st)
	old.pipe.Close()
	old.sum.Close()
	if s.closed.Load() {
		pipe.Close() // nothing may outlive Close's drain contract
	}
	return nil
}

// DurabilityStatus is the WAL/snapshot state /healthz reports (DESIGN.md
// §12). All sequence numbers are WAL sequences; 0 means "nothing yet".
type DurabilityStatus struct {
	// WAL reports whether a write-ahead log backs /v1/ingest.
	WAL bool `json:"wal"`
	// AppendedSeq is the last sequence number appended to the log.
	AppendedSeq uint64 `json:"appended_seq,omitempty"`
	// SyncedSeq is the durability frontier: the highest sequence known to
	// be fsync'd. Every 202 response covers a sequence ≤ SyncedSeq.
	SyncedSeq uint64 `json:"synced_seq,omitempty"`
	// Segments is the number of live WAL segment files.
	Segments int `json:"segments,omitempty"`
	// SnapshotSeq is the sequence the latest completed snapshot covers;
	// WAL records at or below it have been (or are about to be) truncated.
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	// SnapshotUnix is when the latest snapshot completed (Unix seconds).
	SnapshotUnix int64 `json:"snapshot_unix,omitempty"`
}

// RetentionStatus is the sliding-window retention state /healthz reports
// (DESIGN.md §13). All counters cover the background loop; expires issued
// directly over POST /v1/expire are not included.
type RetentionStatus struct {
	// Enabled reports whether a background retention loop is running.
	Enabled bool `json:"enabled"`
	// WindowSeconds is the sliding retention horizon.
	WindowSeconds int64 `json:"window_seconds,omitempty"`
	// IntervalSeconds is the loop cadence.
	IntervalSeconds int64 `json:"interval_seconds,omitempty"`
	// Runs is the number of completed retention ticks.
	Runs int64 `json:"runs,omitempty"`
	// Dropped is the total number of leaves reclaimed by the loop.
	Dropped int64 `json:"dropped,omitempty"`
	// LastCutoff is the latest tick's cutoff timestamp (Unix seconds).
	LastCutoff int64 `json:"last_cutoff,omitempty"`
	// LastUnix is when the latest tick completed (Unix seconds).
	LastUnix int64 `json:"last_unix,omitempty"`
}

// Replication roles reported in /healthz's "replication" field.
const (
	// RoleStandalone is a server with no replication configured.
	RoleStandalone = "standalone"
	// RolePrimary serves a replication feed (higgsd -replication-addr).
	RolePrimary = "primary"
	// RoleFollower is a read-only replica (higgsd -replicate-from).
	RoleFollower = "follower"
)

// ReplicationStatus is the replication state /healthz reports (DESIGN.md
// §15): the server's role and, for a follower, where it replicates from
// and how far behind it is.
type ReplicationStatus struct {
	// Role is RoleStandalone, RolePrimary, or RoleFollower.
	Role string `json:"role"`
	// Source is the primary's replication URL (followers only).
	Source string `json:"source,omitempty"`
	// AppliedSeq is the follower's position: every WAL record at or below
	// it is reflected in the served summary.
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	// PrimarySeq is the primary's durability frontier as of the last
	// replication response the follower received.
	PrimarySeq uint64 `json:"primary_seq,omitempty"`
	// Lag is max(PrimarySeq−AppliedSeq, 0) in sequence numbers.
	Lag uint64 `json:"lag,omitempty"`
	// Resyncs counts full snapshot re-fetches (followers only).
	Resyncs int64 `json:"resyncs,omitempty"`
}

// Pipeline returns the ingest pipeline currently feeding the served
// summary, so operational layers (the background snapshotter) can flush
// it. With durability enabled the pair is never swapped.
func (s *Server) Pipeline() *ingest.Pipeline { return s.st.Load().pipe }

// defaultDeltaCandidates caps the server-filled candidate set of a
// delta_vertex item that omitted its own: the engine's top tracked
// vertices, enough to rank "what changed most" without letting a
// convenience default plan thousands of probes.
const defaultDeltaCandidates = 256

// admitQuery asks the admission controller ctrl (nil admits everything)
// to run a request planning the given number of per-shard probes. It returns the release
// callback and true, or answers 429 + Retry-After itself and returns
// false. The client key is the peer host, so one tenant's token bucket
// spans its connections but not its ports.
func admitQuery(w http.ResponseWriter, r *http.Request, ctrl *admit.Controller, probes int) (func(), bool) {
	if ctrl == nil {
		return func() {}, true
	}
	client := r.RemoteAddr
	if host, _, err := net.SplitHostPort(client); err == nil {
		client = host
	}
	release, err := ctrl.Admit(client, probes)
	if err != nil {
		code := httpapi.CodeOverloaded
		if errors.Is(err, admit.ErrRateLimited) {
			code = httpapi.CodeRateLimited
		}
		ms := ctrl.RetryAfter().Milliseconds()
		if ms < 1 {
			ms = 1
		}
		httpapi.ErrorRetry(w, http.StatusTooManyRequests, code, ms, "%v", err)
		return nil, false
	}
	return release, true
}

// ReplaceSummary swaps the served summary — the replica resync path, wired
// to repl.FollowerConfig.OnSwap: when the primary truncated past the
// follower's resume point, the follower re-bootstraps from a fresh
// snapshot and the server must serve it. It runs the same swap as a
// snapshot upload, and is a no-op when sum is already served (a resync
// that raced the server's construction). Only replicas may swap this way;
// on a writable server the summary swaps only through POST /v1/snapshot.
func (s *Server) ReplaceSummary(sum *shard.Summary) error {
	if !s.st.Load().cfg.Replica {
		return errors.New("server: ReplaceSummary is replica-only")
	}
	return s.swap(sum)
}

// summary returns the current summary.
func (s *Server) summary() *shard.Summary { return s.st.Load().sum }

// pipeline returns the current ingest pipeline.
func (s *Server) pipeline() *ingest.Pipeline { return s.st.Load().pipe }

// Summary returns the summary currently being served. A snapshot upload
// replaces it, so callers persisting state on shutdown must ask the server
// rather than hold the pointer they constructed it with.
func (s *Server) Summary() *shard.Summary { return s.st.Load().sum }

// Close drains the ingest pipeline: every batch accepted with 202 is
// applied before Close returns. The summary itself stays open and
// queryable, so a caller persisting state on shutdown closes the server
// first and snapshots Summary() after. Requests racing with Close may see
// 503 on /v1/ingest and /v1/snapshot uploads; everything else keeps
// working. Close and swap hold the same mutex, so a swap either finishes
// before Close drains its pipeline or closes its own new one.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed.Store(true)
	s.st.Load().pipe.Close()
}

// Handler returns the HTTP handler implementing the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/insert", s.handleInsert)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/flush", s.handleFlush)
	mux.HandleFunc("/v1/expire", s.handleExpire)
	mux.HandleFunc("/v1/delete", s.handleDelete)
	mux.HandleFunc("/v1/edge", s.handleEdge)
	mux.HandleFunc("/v1/vertex", s.handleVertex)
	mux.HandleFunc("/v1/path", s.handlePath)
	mux.HandleFunc("/v1/subgraph", s.handleSubgraph)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v2/query", s.handleQueryBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// httpError writes the unified error envelope (DESIGN.md §17,
// internal/httpapi) with the status's default code. Paths with a more
// specific code — admission shed, ingest backpressure, query validation —
// call httpapi directly.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	code := httpapi.CodeInternal
	switch status {
	case http.StatusMethodNotAllowed:
		code = httpapi.CodeMethodNotAllowed
	case http.StatusBadRequest:
		code = httpapi.CodeBadRequest
	case http.StatusRequestEntityTooLarge:
		code = httpapi.CodeBodyTooLarge
	case http.StatusForbidden:
		code = httpapi.CodeReadOnlyReplica
	case http.StatusServiceUnavailable:
		code = httpapi.CodeShuttingDown
	case http.StatusConflict:
		code = httpapi.CodeWALOwned
	}
	httpapi.Error(w, status, code, format, args...)
}

// rejectReplicaWrite guards every write endpoint: on a read-only replica
// it answers 403 and reports true. Writes belong on the primary — a
// replica's summary is defined by the primary's record stream alone.
func (s *Server) rejectReplicaWrite(w http.ResponseWriter) bool {
	if !s.st.Load().cfg.Replica {
		return false
	}
	httpError(w, http.StatusForbidden, "read-only replica: writes go to the primary")
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus writes v with the given status code; headers must be set
// before WriteHeader sends them. An Encode error is a connection-level
// failure with nothing sensible left to do.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// handleInsert accepts a JSON array of edges. The batch is grouped by
// shard, so concurrent inserts to different shards do not contend.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.rejectReplicaWrite(w) {
		return
	}
	b, err := decodeBatch(w, r)
	if err != nil {
		httpError(w, decodeStatus(err), "decode: %v", err)
		return
	}
	n := len(b.batch)
	s.summary().InsertBatch(b.batch)
	putBatch(b)
	writeJSON(w, map[string]int{"inserted": n})
}

// handleIngest accepts a JSON array of edges through the group-commit
// pipeline. 200: applied synchronously (sync mode, or auto mode's large
// batches) and immediately visible. 202: accepted; visible after the
// shard's next commit, or at the latest once a later /v1/flush returns.
// 429 (with Retry-After): a shard queue is full and nothing was applied or
// enqueued — retrying the same batch is safe. 503: server shutting down.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.rejectReplicaWrite(w) {
		return
	}
	b, err := decodeBatch(w, r)
	if err != nil {
		httpError(w, decodeStatus(err), "decode: %v", err)
		return
	}
	n := len(b.batch)
	applied, err := s.pipeline().Submit(b.batch)
	putBatch(b)
	switch {
	case errors.Is(err, ingest.ErrQueueFull):
		httpapi.ErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeIngestBackpressure,
			1000, "ingest queue full, retry")
	case errors.Is(err, ingest.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case err != nil:
		httpError(w, http.StatusInternalServerError, "ingest: %v", err)
	case applied:
		writeJSON(w, map[string]int{"inserted": n})
	default:
		writeJSONStatus(w, http.StatusAccepted, map[string]int{"accepted": n})
	}
}

// handleFlush blocks until every edge accepted (202) before the request is
// applied, then reports the summary's item count. Queries issued after a
// flush returns observe all previously accepted edges.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.rejectReplicaWrite(w) {
		return
	}
	st := s.st.Load()
	st.pipe.Flush()
	writeJSON(w, map[string]int64{"items": st.sum.Items()})
}

// expireRequest is the POST body of /v1/expire.
type expireRequest struct {
	Cutoff int64 `json:"cutoff"`
}

// handleExpire drops every subtree whose entire time range lies before the
// cutoff — sliding-window retention over the live summary (DESIGN.md §13).
// The expire goes through the ingest pipeline so it is sequenced against
// in-flight 202-accepted batches, and on a WAL-backed deployment it is
// logged and fsync'd before the response: expired edges stay expired
// across a crash. 200 reports the number of leaves reclaimed; 503 while
// shutting down; 500 on a WAL write/sync failure (the expire applied in
// memory but is not crash-durable).
func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.rejectReplicaWrite(w) {
		return
	}
	var req expireRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, decodeStatus(err), "decode: %v", err)
		return
	}
	dropped, err := s.pipeline().Expire(req.Cutoff)
	switch {
	case errors.Is(err, ingest.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
	case err != nil:
		httpError(w, http.StatusInternalServerError, "expire: %v", err)
	default:
		writeJSON(w, map[string]int64{"dropped": dropped})
	}
}

// batchBuf is the reusable decode scratch of the write endpoints: the JSON
// shape and the stream shape of one batch. Both slices keep their capacity
// across requests, so a steady stream of similar-sized batches decodes
// without growing either.
//
// Ownership: the buffers belong to the handler only until the insert path
// returns — InsertBatch applies the edges into shard matrices and
// Pipeline.Submit copies them onward (WAL frame bytes, queue buffers)
// before returning — which is what makes putBatch safe immediately after.
type batchBuf struct {
	edges []Edge
	batch []stream.Edge
}

var batchPool = sync.Pool{New: func() any { return new(batchBuf) }}

func putBatch(b *batchBuf) {
	b.edges = b.edges[:0]
	b.batch = b.batch[:0]
	batchPool.Put(b)
}

// decodeBatch reads a request body holding a JSON array of edges into
// pooled decode scratch, capped at maxBatchBody via http.MaxBytesReader
// (the caller maps *http.MaxBytesError to 413). The caller must putBatch
// the returned buffer once the batch has been handed to the insert path.
//
//higgsvet:pool-ownership the returned buffer transfers to the caller, which releases it via putBatch; error paths Put before returning
func decodeBatch(w http.ResponseWriter, r *http.Request) (*batchBuf, error) {
	b := batchPool.Get().(*batchBuf)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	b.edges = b.edges[:0]
	if err := dec.Decode(&b.edges); err != nil {
		putBatch(b)
		return nil, fmt.Errorf("body must be a JSON array of edges: %w", err)
	}
	if cap(b.batch) < len(b.edges) {
		b.batch = make([]stream.Edge, len(b.edges))
	}
	b.batch = b.batch[:len(b.edges)]
	for i, e := range b.edges {
		b.batch[i] = stream.Edge{S: e.S, D: e.D, W: e.W, T: e.T}
	}
	return b, nil
}

// decodeStatus maps a decode error to its status code: 413 when the body
// cap tripped, 400 otherwise.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.rejectReplicaWrite(w) {
		return
	}
	var e Edge
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		httpError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	ok := s.summary().Delete(stream.Edge{S: e.S, D: e.D, W: e.W, T: e.T})
	writeJSON(w, map[string]bool{"deleted": ok})
}

// queryWindow parses the ts/te query parameters. Window validity (te ≥ ts)
// is the query planner's job — see query.Query.Validate — so only parse
// failures are reported here.
func queryWindow(r *http.Request) (ts, te int64, err error) {
	ts, err = strconv.ParseInt(r.URL.Query().Get("ts"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("ts: %w", err)
	}
	te, err = strconv.ParseInt(r.URL.Query().Get("te"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("te: %w", err)
	}
	return ts, te, nil
}

func queryU64(r *http.Request, key string) (uint64, error) {
	v, err := strconv.ParseUint(r.URL.Query().Get(key), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	return v, nil
}

// answerOne runs one query through the same planner /v2/query batches use
// (a one-element batch) and writes the v1-shaped response: 400 on a query
// validation error — an inverted time range, a too-short path — 200 with
// {"weight": ...} otherwise. The query runs through the state's read
// prober (the cache, when enabled) and is admission-controlled by its
// planned probe count, exactly like a one-element batch.
func (s *Server) answerOne(w http.ResponseWriter, r *http.Request, q query.Query) {
	st := s.st.Load()
	release, ok := admitQuery(w, r, st.cfg.Admission, q.ProbeCount(st.sum.NumShards()))
	if !ok {
		return
	}
	defer release()
	res := query.Do(st.read, q)
	if res.Err != nil {
		code := query.ErrCode(res.Err)
		if code == "" {
			code = httpapi.CodeBadRequest
		}
		httpapi.Error(w, http.StatusBadRequest, code, "%v", res.Err)
		return
	}
	writeJSON(w, map[string]int64{"weight": res.Weight})
}

func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	sv, err1 := queryU64(r, "s")
	dv, err2 := queryU64(r, "d")
	ts, te, err3 := queryWindow(r)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.answerOne(w, r, query.NewEdge(sv, dv, ts, te))
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	v, err1 := queryU64(r, "v")
	ts, te, err2 := queryWindow(r)
	for _, err := range []error{err1, err2} {
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	var q query.Query
	switch r.URL.Query().Get("dir") {
	case "", "out":
		q = query.NewVertexOut(v, ts, te)
	case "in":
		q = query.NewVertexIn(v, ts, te)
	default:
		httpError(w, http.StatusBadRequest, "dir must be \"out\" or \"in\"")
		return
	}
	s.answerOne(w, r, q)
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	ts, te, err := queryWindow(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	parts := strings.Split(r.URL.Query().Get("v"), ",")
	if len(parts) < 2 {
		httpError(w, http.StatusBadRequest, "v must list ≥ 2 comma-separated vertices")
		return
	}
	path := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "v[%d]: %v", i, err)
			return
		}
		path[i] = v
	}
	s.answerOne(w, r, query.NewPath(path, ts, te))
}

// subgraphRequest is the POST body of /v1/subgraph.
type subgraphRequest struct {
	Edges [][2]uint64 `json:"edges"`
	Ts    int64       `json:"ts"`
	Te    int64       `json:"te"`
}

func (s *Server) handleSubgraph(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req subgraphRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	s.answerOne(w, r, query.NewSubgraph(req.Edges, req.Ts, req.Te))
}

// maxBatchQueries bounds one /v2/query envelope; a larger batch is a
// malformed request, not a bigger lock amortization.
const maxBatchQueries = 65536

// maxBatchBody bounds the /v2/query request body (8 MiB), enforced with
// http.MaxBytesReader before decoding. The write endpoints (/v1/insert,
// /v1/ingest) and /v1/expire share the same cap: an edge batch worth more
// than 8 MiB of JSON should be split, not buffered.
const maxBatchBody = 8 << 20

// maxSnapshotBody bounds a POST /v1/snapshot upload (1 GiB). Snapshots are
// compact relative to the streams they summarize, so anything larger is a
// runaway client, not a bigger summary.
const maxSnapshotBody = 1 << 30

// maxBatchProbes bounds what one /v2/query envelope may expand to. Body
// bytes alone do not bound execution cost: a ~45-byte vertex_in item
// plans one probe per shard, so a small body on a many-shard summary
// could plan millions of probes. The planner's cost is counted up front
// with Query.ProbeCount and an over-budget envelope is rejected whole.
const maxBatchProbes = 1 << 20

// batchResult is the JSON representation of one /v2/query answer: exactly
// one of Weight (scalar kinds), Top (analytics kinds), and Error is
// present. Error slots carry the same stable code vocabulary as the
// endpoint-level envelope, so a client's error handling is uniform whether
// a problem sinks the request or just one item.
type batchResult struct {
	Weight *int64        `json:"weight,omitempty"`
	Top    []query.Entry `json:"top,omitempty"`
	Error  string        `json:"error,omitempty"`
	Code   string        `json:"code,omitempty"`
}

// handleQueryBatch implements POST /v2/query: a JSON array of queries in
// (the query.Query wire format), an aligned JSON array of per-item answers
// out, the whole batch answered with at most one read-lock acquisition per
// shard (internal/query, DESIGN.md §11). Item-level problems — a malformed
// item, an unknown kind, an inverted window, a too-short path — are
// reported in that item's slot without disturbing its neighbors; 400 is
// returned only when the envelope itself is malformed (not a JSON array,
// or over the batch size limit).
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	raws, err := decodeBatchEnvelope(w, r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadEnvelope, "%v", err)
		return
	}
	out := make([]batchResult, len(raws))
	batch := make([]query.Query, 0, len(raws))
	idx := make([]int, 0, len(raws)) // out-slot of each decodable item
	// One state for budgeting, admission, and execution: a concurrent
	// snapshot upload must not let a batch budgeted against few shards
	// execute against many (or be spuriously rejected in the shrink
	// direction), and the cache consulted must be the one bound to the
	// summary that answers.
	st := s.st.Load()
	shards := st.sum.NumShards()
	probes := 0
	for i, raw := range raws {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var q query.Query
		if err := dec.Decode(&q); err != nil {
			out[i].Error = err.Error()
			out[i].Code = httpapi.CodeBadRequest
			continue
		}
		// A delta_vertex item may omit its candidate set: the engine's
		// tracked heavy hitters are the natural "what changed most"
		// candidates. Filled before budgeting so admission sees the real
		// probe count.
		if q.Kind == query.KindDeltaVertex && len(q.Candidates) == 0 && st.cfg.Analytics != nil {
			q.Candidates = st.cfg.Analytics.CandidateVertices(q.Dir, defaultDeltaCandidates)
		}
		if probes += q.ProbeCount(shards); probes > maxBatchProbes {
			httpapi.Error(w, http.StatusBadRequest, httpapi.CodeProbeBudget,
				"batch expands to more than %d per-shard probes; split it", maxBatchProbes)
			return
		}
		batch = append(batch, q)
		idx = append(idx, i)
	}
	release, admitted := admitQuery(w, r, st.cfg.Admission, probes)
	if !admitted {
		return
	}
	defer release()
	var eng query.Analytics
	if st.cfg.Analytics != nil {
		eng = st.cfg.Analytics
	}
	for j, res := range query.DoBatchWith(st.read, eng, batch) {
		if res.Err != nil {
			out[idx[j]].Error = res.Err.Error()
			out[idx[j]].Code = query.ErrCode(res.Err)
			continue
		}
		switch batch[j].Kind {
		case query.KindDeltaVertex, query.KindDeltaEdge, query.KindHeavyHitters, query.KindBurst:
			// Ranked kinds answer via "top"; an empty ranking omits the
			// field (omitempty), never emits "weight".
			out[idx[j]].Top = res.Top
		default:
			weight := res.Weight
			out[idx[j]].Weight = &weight
		}
	}
	writeJSON(w, out)
}

// decodeBatchEnvelope reads the /v2/query body as a JSON array of raw
// items, streaming so both limits bind *while* reading: the byte cap via
// http.MaxBytesReader and the item cap per element — a body of millions
// of tiny items is rejected at item 65537, not materialized first.
func decodeBatchEnvelope(w http.ResponseWriter, r *http.Request) ([]json.RawMessage, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("body must be a JSON array of queries: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("body must be a JSON array of queries, got %v", tok)
	}
	raws := []json.RawMessage{}
	for dec.More() {
		if len(raws) >= maxBatchQueries {
			return nil, fmt.Errorf("batch exceeds the limit of %d queries", maxBatchQueries)
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("query %d: %w", len(raws), err)
		}
		raws = append(raws, raw)
	}
	if _, err := dec.Token(); err != nil { // consume the closing ']'
		return nil, fmt.Errorf("body must be a JSON array of queries: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("unexpected data after the query array (%v)", tok)
	}
	return raws, nil
}

// MemoryStatus is the heap summary /healthz reports, read from
// runtime.MemStats: live heap (alloc/inuse), lifetime allocation volume
// (total bytes and malloc count — the counters the pooling work drives
// down), and completed GC cycles.
type MemoryStatus struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapInuseBytes  uint64 `json:"heap_inuse_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	NumGC           uint32 `json:"num_gc"`
}

// readMemory fills a MemoryStatus from runtime.ReadMemStats. The read
// stops the world for ~tens of microseconds — fine at probe cadence, which
// is why it lives in /healthz rather than on a query path.
func readMemory() MemoryStatus {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemoryStatus{
		HeapAllocBytes:  ms.HeapAlloc,
		HeapInuseBytes:  ms.HeapInuse,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
	}
}

// ReadCacheStatus is the read-cache state /healthz reports (DESIGN.md
// §16): whether a cache fronts the planner, and its hit/miss/eviction/
// occupancy counters when one does.
type ReadCacheStatus struct {
	// Enabled reports whether queries run through a result cache.
	Enabled bool `json:"enabled"`
	rcache.Stats
}

// AdmissionStatus is the admission-control state /healthz reports
// (DESIGN.md §16): whether a controller fronts the query endpoints, and
// its per-class budget/queue/shed counters when one does.
type AdmissionStatus struct {
	// Enabled reports whether queries are admission-controlled.
	Enabled bool `json:"enabled"`
	admit.Stats
}

// AnalyticsStatus is the stream-analytics state /healthz reports
// (DESIGN.md §17): whether the engine runs, its tracked-candidate and
// burst counters when it does.
type AnalyticsStatus struct {
	// Enabled reports whether the analytics engine observes the summary.
	Enabled bool `json:"enabled"`
	analytics.Stats
}

// handleHealthz is the load-balancer probe: 200 with the serving
// configuration, computed without touching a shard lock or a query path,
// so probes stay cheap and never queue behind traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := s.st.Load()
	var durability DurabilityStatus
	if fn := st.cfg.Durability; fn != nil {
		durability = fn()
	}
	var retention RetentionStatus
	if fn := st.cfg.Retention; fn != nil {
		retention = fn()
	}
	replication := ReplicationStatus{Role: RoleStandalone}
	if fn := st.cfg.Replication; fn != nil {
		replication = fn()
	}
	var readCache ReadCacheStatus
	if st.cache != nil {
		readCache = ReadCacheStatus{Enabled: true, Stats: st.cache.Stats()}
	}
	var admission AdmissionStatus
	if ctrl := st.cfg.Admission; ctrl != nil {
		admission = AdmissionStatus{Enabled: true, Stats: ctrl.Stats()}
	}
	var analyticsStatus AnalyticsStatus
	if eng := st.cfg.Analytics; eng != nil {
		analyticsStatus = AnalyticsStatus{Enabled: true, Stats: eng.Stats()}
	}
	writeJSON(w, map[string]any{
		"status":         "ok",
		"shards":         st.sum.NumShards(),
		"ingest":         st.pipe.Mode().String(),
		"durability":     durability,
		"retention":      retention,
		"replication":    replication,
		"memory":         readMemory(),
		"read_cache":     readCache,
		"admission":      admission,
		"analytics":      analyticsStatus,
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"version":        BuildVersion(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.summary().Stats())
}

// handleSnapshot serves the sharded binary snapshot on GET and replaces
// the summary from an uploaded snapshot on POST (sharded or legacy
// unsharded; see shard.Read). A GET during async ingest snapshots whatever
// has been committed; POST /v1/flush first to capture everything accepted.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := s.summary().WriteTo(w); err != nil {
			// Headers are gone; the truncated body signals failure.
			return
		}
	case http.MethodPost:
		if s.rejectReplicaWrite(w) {
			return
		}
		if s.closed.Load() {
			httpError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		if s.st.Load().cfg.Ingest.WAL != nil {
			httpError(w, http.StatusConflict,
				"snapshot upload disabled: durable state is owned by the write-ahead log (-wal-dir)")
			return
		}
		loaded, err := shard.Read(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
		if err != nil {
			httpError(w, decodeStatus(err), "snapshot: %v", err)
			return
		}
		if err := s.swap(loaded); err != nil {
			// The config was validated at construction; a failure here
			// means the summary/config pair is somehow unusable.
			loaded.Close()
			httpError(w, http.StatusInternalServerError, "swap: %v", err)
			return
		}
		writeJSON(w, map[string]any{
			"loaded": true,
			"items":  loaded.Items(),
			"shards": loaded.NumShards(),
		})
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}
