package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"higgs/internal/query"
	"higgs/internal/stream"
)

// shape is one of the stream presets' Table II shapes at scale 1. The
// presets in internal/stream fix their own seeds; the benchmark keeps the
// shape and takes the seed from --seed so every input follows the run's
// seed.
type shape struct {
	nodes    int
	edges    int
	span     int64
	skew     float64
	variance float64
}

var (
	lkmlShape          = shape{nodes: 8_000, edges: 140_000, span: 220_000_000, skew: 2.0, variance: 900}
	stackoverflowShape = shape{nodes: 18_000, edges: 440_000, span: 220_000_000, skew: 2.4, variance: 1300}
)

// generate returns chunk k of the seeded stream of shape sh: chunk 0 is
// the preset itself, and chunk k > 0 continues it with fresh draws shifted
// k spans later, so the concatenation never decreases in time and a run
// never runs out of data.
func (sh shape) generate(seed int64, k int, scale float64) (stream.Stream, error) {
	s, err := stream.Generate(stream.Config{
		Nodes:    max(2, int(float64(sh.nodes)*scale)),
		Edges:    max(1, int(float64(sh.edges)*scale)),
		Span:     sh.span,
		Skew:     sh.skew,
		Variance: sh.variance,
		Slices:   4000,
		Seed:     seed*1_000_003 + int64(k),
	})
	if err != nil {
		return nil, err
	}
	for i := range s {
		s[i].T += int64(k) * sh.span
	}
	return s, nil
}

// extend returns the first n edges of the seeded stream of shape sh.
func (sh shape) extend(seed int64, n int, scale float64) (stream.Stream, error) {
	out := make(stream.Stream, 0, n)
	for k := 0; len(out) < n; k++ {
		c, err := sh.generate(seed, k, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, c[:min(len(c), n-len(out))]...)
	}
	return out, nil
}

// workload is one traffic mix against the same daemon configuration.
// Every rate is an offered (open-loop) rate. BENCHMARK.json says why each
// workload is there.
type workload struct {
	name string

	shape   shape
	preload int // edges of the stream loaded before measuring (scale 1)

	writeEPS  float64    // nominal offered edge rate, 64-edge batches (0: no writes)
	readRPS   float64    // nominal offered /v2/query batches per second
	writeRamp [2]float64 // offered edge rates the write ramp spans
	readRamp  [2]float64 // offered batch rates the read ramp spans

	// reads returns the generator of the workload's query batches.
	reads func(seed int64, env *readEnv) readGen
}

// writeBatch is the edge count of every streamed /v1/ingest request.
const writeBatch = 64

// readGen produces a read lane's next query batch, due at due. Calls are
// sequential, so generators may keep RNG state.
type readGen func(due time.Time) []query.Query

// readEnv is what a read generator may look at: the preloaded stream
// (with its hot sets), and the writer's schedule, so reads of recent
// windows target edges due to have been written by then.
type readEnv struct {
	pre    stream.Stream
	all    stream.Stream // preload followed by the streamed edges
	writer *schedule     // the write lane's current schedule
	adj    map[uint64][]uint64
	hotV   []uint64 // heaviest vertices of the preload, heaviest first
	hotE   [][2]uint64
}

// workloads lists the benchmark's traffic mixes; BENCHMARK.json names the
// same ones.
var workloads = []*workload{
	// Writes dominate: WAL, ingest, shard apply, core insert and the
	// analytics observer; the reads beside them show read-lock wait.
	{
		name:  "ingest",
		shape: lkmlShape, preload: 3 * lkmlShape.edges / 2,
		writeEPS: 20_000, readRPS: 250,
		writeRamp: [2]float64{50_000, 200_000}, readRamp: [2]float64{2_000, 8_000},
		reads: recentReads,
	},
	// Cold reads: codec, planner and shard probes; the working set is
	// several times the cache, so the cache pays only its miss path.
	{
		name:  "scan",
		shape: stackoverflowShape, preload: stackoverflowShape.edges,
		readRPS:  80,
		readRamp: [2]float64{120, 480},
		reads:    scanReads,
	},
	// Hot reads: cache hits, admission and analytics queries; the writes
	// invalidate shards, which shows as hit ratio.
	{
		name:  "dashboard",
		shape: lkmlShape, preload: 3 * lkmlShape.edges,
		writeEPS: 5_000, readRPS: 600,
		writeRamp: [2]float64{45_000, 180_000}, readRamp: [2]float64{1_000, 4_000},
		reads: dashboardReads,
	},
}

// rampLimit is the latency limit of every max-rate ramp's knee (p90).
const rampLimit = 25 * time.Millisecond

// writeArrivals is the nominal write schedule, in 64-edge batches; nil
// for a workload without writes.
func (w *workload) writeArrivals(d time.Duration) arrivals {
	if w.writeEPS == 0 {
		return nil
	}
	return steady{rate: w.writeEPS / writeBatch, dur: d}
}

// readArrivals is the nominal read schedule.
func (w *workload) readArrivals(d time.Duration) arrivals {
	return steady{rate: w.readRPS, dur: d}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newReadEnv indexes the preload for the read generators: out-adjacency
// for path walks and the heaviest vertices and edges for hot sets.
func newReadEnv(pre, all stream.Stream, writer *schedule) *readEnv {
	env := &readEnv{pre: pre, all: all, writer: writer, adj: map[uint64][]uint64{}}
	vw := map[uint64]int64{}
	ew := map[[2]uint64]int64{}
	seen := map[[2]uint64]bool{}
	for _, e := range pre {
		k := [2]uint64{e.S, e.D}
		if !seen[k] {
			seen[k] = true
			env.adj[e.S] = append(env.adj[e.S], e.D)
		}
		vw[e.S] += e.W
		vw[e.D] += e.W
		ew[k] += e.W
	}
	for v := range vw {
		env.hotV = append(env.hotV, v)
	}
	sort.Slice(env.hotV, func(i, j int) bool {
		a, b := env.hotV[i], env.hotV[j]
		return vw[a] > vw[b] || (vw[a] == vw[b] && a < b)
	})
	for k := range ew {
		env.hotE = append(env.hotE, k)
	}
	sort.Slice(env.hotE, func(i, j int) bool {
		a, b := env.hotE[i], env.hotE[j]
		if ew[a] != ew[b] {
			return ew[a] > ew[b]
		}
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	env.hotV = env.hotV[:min(len(env.hotV), hotSet)]
	env.hotE = env.hotE[:min(len(env.hotE), hotSet)]
	return env
}

// hotSet is how many of the heaviest vertices and edges dashboard keys
// are drawn from.
const hotSet = 1000

// randomWindow draws a window uniformly placed inside [first, last] with
// a length up to the whole span.
func randomWindow(rng *rand.Rand, first, last int64) (int64, int64) {
	a := first + rng.Int63n(last-first+1)
	b := first + rng.Int63n(last-first+1)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// walk returns a path of n vertices following out-edges of the preload
// from start; at a dead end it continues from a random preloaded source.
func (env *readEnv) walk(rng *rand.Rand, start uint64, n int) []uint64 {
	p := []uint64{start}
	for len(p) < n {
		next := env.adj[p[len(p)-1]]
		if len(next) == 0 {
			p = append(p, env.pre[rng.Intn(len(env.pre))].S)
			continue
		}
		p = append(p, next[rng.Intn(len(next))])
	}
	return p
}

// scanReads: 64-item batches mixing every probe-planned kind, keys
// uniform over the preloaded stream, windows random.
func scanReads(seed int64, env *readEnv) readGen {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	first, last := env.pre.Span()
	return func(time.Time) []query.Query {
		qs := make([]query.Query, 64)
		for j := range qs {
			e := env.pre[rng.Intn(len(env.pre))]
			ts, te := randomWindow(rng, first, last)
			switch r := rng.Intn(100); {
			case r < 40:
				qs[j] = query.NewEdge(e.S, e.D, ts, te)
			case r < 60:
				qs[j] = query.NewVertexOut(e.S, ts, te)
			case r < 75:
				qs[j] = query.NewVertexIn(e.D, ts, te)
			case r < 90:
				qs[j] = query.NewPath(env.walk(rng, e.S, 4), ts, te)
			default:
				sub := make([][2]uint64, 4)
				for k := range sub {
					f := env.pre[rng.Intn(len(env.pre))]
					sub[k] = [2]uint64{f.S, f.D}
				}
				qs[j] = query.NewSubgraph(sub, ts, te)
			}
		}
		return qs
	}
}

// dashboardReads: 1-8 item batches whose keys follow a Zipf law over the
// heaviest vertices and edges, on a few fixed windows ending past the
// preload's frontier (so the live writes land inside them); ~10% of the
// items are analytics kinds.
func dashboardReads(seed int64, env *readEnv) readGen {
	rng := rand.New(rand.NewSource(seed ^ 0xda5b0a7d))
	zv := rand.NewZipf(rng, 1.1, 1, uint64(len(env.hotV)-1))
	ze := rand.NewZipf(rng, 1.1, 1, uint64(len(env.hotE)-1))
	first, frontier := env.pre.Span()
	span := frontier - first
	open := frontier + 100*span // past every live write of a run
	windows := [][2]int64{
		{frontier - span/1000, open},
		{frontier - span/100, open},
		{frontier - span/10, open},
		{first, open},
	}
	cands := env.hotV[:min(16, len(env.hotV))]
	return func(time.Time) []query.Query {
		qs := make([]query.Query, 1+rng.Intn(8))
		for j := range qs {
			w := windows[rng.Intn(len(windows))]
			switch r := rng.Intn(100); {
			case r < 45:
				e := env.hotE[ze.Uint64()]
				qs[j] = query.NewEdge(e[0], e[1], w[0], w[1])
			case r < 75:
				qs[j] = query.NewVertexOut(env.hotV[zv.Uint64()], w[0], w[1])
			case r < 90:
				qs[j] = query.NewVertexIn(env.hotV[zv.Uint64()], w[0], w[1])
			case r < 94:
				qs[j] = query.NewHeavyHitters([]string{query.DirOut, query.DirIn}[rng.Intn(2)], 10)
			case r < 97:
				qs[j] = query.NewBurst(10)
			default:
				mid := frontier - span/100
				qs[j] = query.NewDeltaVertex(cands, mid-span/100, mid, mid+1, open)
			}
		}
		return qs
	}
}

// recentReads: 4-item edge batches on edges the writer was due to have
// sent within the last second, windows ending at that frontier.
func recentReads(seed int64, env *readEnv) readGen {
	rng := rand.New(rand.NewSource(seed ^ 0x12ece17))
	return func(due time.Time) []query.Query {
		hi := env.writer.dueEdges(due) + len(env.pre)
		hi = min(max(hi, 1), len(env.all))
		lo := max(0, hi-int(env.writer.rate()))
		front := env.all[hi-1].T
		qs := make([]query.Query, 4)
		for j := range qs {
			e := env.all[lo+rng.Intn(hi-lo)]
			qs[j] = query.NewEdge(e.S, e.D, e.T-(front-e.T)-1000, front)
		}
		return qs
	}
}

// appendEdges encodes a /v1/ingest body without reflection, keeping the
// generator's own CPU cost small next to the daemon's.
func appendEdges(b []byte, es []stream.Edge) []byte {
	b = append(b, '[')
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"s":`...)
		b = strconv.AppendUint(b, e.S, 10)
		b = append(b, `,"d":`...)
		b = strconv.AppendUint(b, e.D, 10)
		b = append(b, `,"w":`...)
		b = strconv.AppendInt(b, e.W, 10)
		b = append(b, `,"t":`...)
		b = strconv.AppendInt(b, e.T, 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// probes returns the per-shard probe count a batch plans on n shards.
func probes(qs []query.Query, n int) int {
	p := 0
	for _, q := range qs {
		p += q.ProbeCount(n)
	}
	return p
}

// checkHotSets guards dashboardReads: rand.NewZipf returns nil for
// an empty hot set.
func checkHotSets(env *readEnv) error {
	if len(env.hotV) < 2 || len(env.hotE) < 2 {
		return fmt.Errorf("hot sets too small (%d vertices, %d edges)", len(env.hotV), len(env.hotE))
	}
	return nil
}
