package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"higgs/internal/metrics"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/shard"
)

// readCachePool is the distinct-query universe of the skewed workload:
// small enough that a Zipf-skewed client re-asks the same questions, large
// enough that the cache has to hold a real working set.
const readCachePool = 256

// readCacheDraws is the skewed-workload volume per row.
const readCacheDraws = 6144

// readCacheEquivQueries is the mixed workload replayed after every epoch
// of the equivalence phase.
const readCacheEquivQueries = 600

// readCacheBudget comfortably fits the full probe working set, so the
// hit-rate floor measures invalidation correctness, not eviction pressure.
const readCacheBudget int64 = 4 << 20

// ReadCache is the watermark-invalidated read cache gate (internal/rcache,
// DESIGN.md §16), run in CI at 1/2/4/8 shards. Three contracts hard-fail
// the run rather than warn:
//
//   - equivalence: cached DoBatch answers must be identical to uncached
//     DoBatch answers after every epoch of an interleaved
//     ingest → expire → summary-swap sequence. The expire must actually
//     reclaim leaves (a vacuous expire would not exercise invalidation),
//     and the swap rebuilds the cache the way a server summary swap does.
//   - zero-lock full hits: replaying an identical batch against a warm
//     cache must reach the backend zero times, measured by a counting
//     Backend — the cache strengthens the planner's ≤1-lock-per-shard
//     invariant to 0 for hot shards.
//   - skewed-repeat payoff: a Zipf-skewed workload over a small query pool
//     must hit ≥ 80% and run faster through the cache than against the
//     bare summary, with byte-identical answers.
//
// The hit rate and lock count are deterministic and gated by the committed
// baseline too; throughput is recorded in the artifact but, as with the
// batchquery gate, only the in-run "cached beats uncached" ordering is
// enforced — absolute QPS swings too much on shared runners.
func ReadCache(o Options) error {
	o.fill()
	fmt.Fprintln(o.Out, "== Extra: watermark-invalidated read cache (internal/rcache) ==")
	t := metrics.NewTable("dataset", "shards", "uncached", "cached", "speedup", "hit-rate", "locks/full-hit", "verify")
	dss, err := o.datasets()
	if err != nil {
		return err
	}
	for _, ds := range dss {
		for _, n := range shardCounts {
			r, err := readCacheRun(ds, n, o.Seed)
			if err != nil {
				return err
			}
			o.record(fmt.Sprintf("%s_s%d_uncached_qps", ds.Name, n), r.uncachedQPS)
			o.record(fmt.Sprintf("%s_s%d_cached_qps", ds.Name, n), r.cachedQPS)
			o.record(fmt.Sprintf("%s_s%d_hit_rate", ds.Name, n), r.hitRate)
			o.record(fmt.Sprintf("%s_s%d_locks_full_hit", ds.Name, n), float64(r.locksFullHit))
			t.AddRow(ds.Name, fmt.Sprint(n),
				metrics.FormatEPS(r.uncachedQPS), metrics.FormatEPS(r.cachedQPS),
				fmt.Sprintf("%.2f×", r.cachedQPS/r.uncachedQPS),
				fmt.Sprintf("%.1f%%", 100*r.hitRate),
				fmt.Sprint(r.locksFullHit),
				fmt.Sprintf("%d epochs identical", r.epochs))
		}
	}
	return t.Render(o.Out)
}

type readCacheResult struct {
	uncachedQPS  float64
	cachedQPS    float64
	hitRate      float64
	locksFullHit int64
	epochs       int
}

// countingBackend counts backend ProbeShard calls. shard.Summary.ProbeShard
// acquires its shard's read lock exactly once per call, so the delta across
// a cached batch is that batch's shard read-lock acquisition count.
type countingBackend struct {
	*shard.Summary
	calls atomic.Int64
}

func (c *countingBackend) ProbeShard(i int, probes []query.Probe, out []int64) {
	c.calls.Add(1)
	c.Summary.ProbeShard(i, probes, out)
}

// assertCachedEqualsUncached replays the workload through both probers and
// hard-fails on the first divergence — the cache's core contract is that a
// hit is indistinguishable from an uncached probe.
func assertCachedEqualsUncached(epoch string, n int, cached, uncached query.Prober, qs []query.Query) error {
	want, err := batchedAnswers(uncached, qs)
	if err != nil {
		return fmt.Errorf("bench: readcache %d: %s: uncached: %w", n, epoch, err)
	}
	got, err := batchedAnswers(cached, qs)
	if err != nil {
		return fmt.Errorf("bench: readcache %d: %s: cached: %w", n, epoch, err)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("bench: readcache %d: %s: query %d (%v): cached = %d, uncached = %d",
				n, epoch, i, qs[i].Kind, got[i], want[i])
		}
	}
	return nil
}

// readCacheRun measures one (dataset, shard count) row.
func readCacheRun(ds *Dataset, n int, seed int64) (readCacheResult, error) {
	var res readCacheResult
	cfg := shard.DefaultConfig()
	cfg.Shards = n
	cfg.Core.Seed = uint64(seed)
	s, err := shard.New(cfg)
	if err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	defer s.Close()
	cache, err := rcache.New(s, rcache.Config{MaxBytes: readCacheBudget})
	if err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}

	// Phase 1 — equivalence epochs: ingest in thirds, expire between the
	// second and third slab, then swap summaries the way a replica resync
	// does (fresh summary, fresh cache). The SAME cache instance survives
	// the ingest and expire epochs, so each check exercises invalidation of
	// entries the previous epoch filled.
	qs := batchWorkload(ds, readCacheEquivQueries, seed)
	third := len(ds.Stream) / 3
	slabs := []struct {
		name string
		lo   int
		hi   int
	}{
		{"epoch1-ingest", 0, third},
		{"epoch2-ingest", third, 2 * third},
		{"epoch4-ingest", 2 * third, len(ds.Stream)},
	}
	for i, slab := range slabs {
		if i == 2 {
			// Epoch 3 — expire: cut everything wholly behind the ingest
			// frontier's midpoint so whole subtrees drop and the affected
			// shards' versions must advance.
			cutoff := ds.Stream[third].T
			if dropped := s.ExpireAt(cutoff, 0); dropped <= 0 {
				return res, fmt.Errorf("bench: readcache %d: expire at %d dropped %d leaves; the epoch never bites", n, cutoff, dropped)
			}
			if err := assertCachedEqualsUncached("epoch3-expire", n, cache, s, qs); err != nil {
				return res, err
			}
			res.epochs++
		}
		s.InsertBatch(ds.Stream[slab.lo:slab.hi])
		if err := assertCachedEqualsUncached(slab.name, n, cache, s, qs); err != nil {
			return res, err
		}
		res.epochs++
	}
	// Epoch 5 — summary swap: a fresh summary with different content and a
	// fresh cache bound to it, exactly what a server summary swap installs.
	swapped, err := shard.New(cfg)
	if err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	defer swapped.Close()
	swapped.InsertBatch(ds.Stream[:2*third])
	swapCache, err := rcache.New(swapped, rcache.Config{MaxBytes: readCacheBudget})
	if err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	if err := assertCachedEqualsUncached("epoch5-swap", n, swapCache, swapped, qs); err != nil {
		return res, err
	}
	res.epochs++

	// Phase 2 — zero-lock full hits, on the quiesced post-ingest summary:
	// fill with one pass over a batch, then the identical replay must not
	// reach the backend at all.
	counter := &countingBackend{Summary: s}
	counted, err := rcache.New(counter, rcache.Config{MaxBytes: readCacheBudget})
	if err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	hot := qs[:batchQuerySize]
	if _, err := batchedAnswers(counted, hot); err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	before := counter.calls.Load()
	if _, err := batchedAnswers(counted, hot); err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	res.locksFullHit = counter.calls.Load() - before
	if res.locksFullHit != 0 {
		return res, fmt.Errorf("bench: readcache %d: full-hit replay acquired %d shard read locks, want 0", n, res.locksFullHit)
	}

	// Phase 3 — skewed repeat workload: Zipf-distributed draws from a small
	// pool, the hot-read regime the cache exists for. Uncached first, then
	// cached (cold — its misses are the pool's first appearances), with the
	// hit rate measured over the timed pass.
	pool := batchWorkload(ds, readCachePool, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	zipf := rand.NewZipf(rng, 1.2, 1, readCachePool-1)
	seq := make([]query.Query, readCacheDraws)
	for i := range seq {
		seq[i] = pool[zipf.Uint64()]
	}

	start := time.Now()
	want, err := batchedAnswers(s, seq)
	if err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	res.uncachedQPS = metrics.Throughput(int64(len(seq)), time.Since(start))

	hot2, err := rcache.New(s, rcache.Config{MaxBytes: readCacheBudget})
	if err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	statsBefore := hot2.Stats()
	start = time.Now()
	got, err := batchedAnswers(hot2, seq)
	if err != nil {
		return res, fmt.Errorf("bench: readcache %d: %w", n, err)
	}
	res.cachedQPS = metrics.Throughput(int64(len(seq)), time.Since(start))
	statsAfter := hot2.Stats()

	for i := range want {
		if got[i] != want[i] {
			return res, fmt.Errorf("bench: readcache %d: skewed query %d (%v): cached = %d, uncached = %d",
				n, i, seq[i].Kind, got[i], want[i])
		}
	}
	hits := statsAfter.Hits - statsBefore.Hits
	misses := statsAfter.Misses - statsBefore.Misses
	res.hitRate = float64(hits) / float64(hits+misses)
	if res.hitRate < 0.8 {
		return res, fmt.Errorf("bench: readcache %d: skewed workload hit rate %.1f%%, want ≥ 80%%", n, 100*res.hitRate)
	}
	if res.cachedQPS <= res.uncachedQPS {
		return res, fmt.Errorf("bench: readcache %d: cached %.0f q/s did not beat uncached %.0f q/s", n, res.cachedQPS, res.uncachedQPS)
	}
	return res, nil
}
