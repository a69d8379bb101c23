package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"higgs/internal/stream"
)

// The generator is an open loop over at most two connections: each lane
// owns one keep-alive connection and sends its requests in order, each
// request due at a time fixed by the lane's arrival schedule whether or
// not the daemon kept up. Latency is measured from the due time, so a
// stall is charged to every request queued behind it. The generator's own
// lateness is the time between the moment a request could have been sent
// (due, and the lane's connection free) and the moment it was.

// arrivals is an open-loop arrival schedule.
type arrivals interface {
	due(i int) (time.Duration, bool) // offset of request i; false past the end
	rateAt(t time.Duration) float64  // offered requests per second at offset t
	length() time.Duration
}

// steady offers a fixed rate.
type steady struct {
	rate float64
	dur  time.Duration
}

func (s steady) due(i int) (time.Duration, bool) {
	t := time.Duration(float64(i) / s.rate * float64(time.Second))
	return t, t < s.dur
}
func (s steady) rateAt(time.Duration) float64 { return s.rate }
func (s steady) length() time.Duration        { return s.dur }

// ramp offers a rate growing geometrically from `from` to `to` over dur:
// the same relative step everywhere, so the knee is located with the
// same relative precision whatever the capacity.
type ramp struct {
	from, to float64
	dur      time.Duration
}

func (r ramp) growth() float64 { return math.Log(r.to/r.from) / r.dur.Seconds() }

func (r ramp) due(i int) (time.Duration, bool) {
	// N(t) = from·(e^{at}−1)/a requests are due by t; invert for N = i.
	a := r.growth()
	t := time.Duration(math.Log1p(a*float64(i)/r.from) / a * float64(time.Second))
	return t, t < r.dur
}
func (r ramp) rateAt(t time.Duration) float64 { return r.from * math.Exp(r.growth()*t.Seconds()) }
func (r ramp) length() time.Duration          { return r.dur }

// schedule publishes a write lane's arrival schedule so a read generator
// can target the edges due to have been written at a given instant.
type schedule struct {
	p atomic.Pointer[scheduleState]
}

type scheduleState struct {
	start time.Time
	base  int     // streamed edges handed out before this schedule began
	eps   float64 // offered edges per second
}

func (s *schedule) set(start time.Time, base int, eps float64) {
	s.p.Store(&scheduleState{start: start, base: base, eps: eps})
}

// dueEdges is the number of streamed edges due by t.
func (s *schedule) dueEdges(t time.Time) int {
	st := s.p.Load()
	if st == nil {
		return 0
	}
	return st.base + max(0, int(t.Sub(st.start).Seconds()*st.eps))
}

// rate is the current offered edge rate.
func (s *schedule) rate() float64 {
	if st := s.p.Load(); st != nil {
		return st.eps
	}
	return 0
}

// job is one request of a lane.
type job struct {
	path  string
	body  []byte
	items int
	// ordered: a 429 is retried with the same body before the lane moves
	// on, so an ordered writer's stream reaches the daemon in order.
	ordered bool
	// onOK runs after a 2xx answer.
	onOK func()
}

// sample is one request's outcome: its due offset from the phase start
// and its latency, +Inf when it failed or was never sent.
type sample struct {
	at  time.Duration
	lat float64 // ms
}

// laneStats is what one lane measured in one phase.
type laneStats struct {
	samples   []sample
	late      []float64 // ms, generator lateness per request sent
	attempted int       // requests sent, retries included
	failed    int       // transport errors, timeouts and non-2xx answers
	refused   int       // 429 answers (also counted in failed)
	ok        int       // successful requests
	items     int       // edges or query items of successful requests
	backlog   int       // requests still unsent when the phase gave up
}

// lats returns the latencies of the successful requests due in [from, to).
func (s *laneStats) lats(from, to time.Duration) []float64 {
	var out []float64
	for _, x := range s.samples {
		if x.at >= from && x.at < to && !math.IsInf(x.lat, 1) {
			out = append(out, x.lat)
		}
	}
	return out
}

// p returns the q-quantile latency in ms of the successful requests.
func (s *laneStats) p(q float64) float64 {
	return quantile(s.lats(0, math.MaxInt64), q)
}

// knee returns the offset at which the lane stopped meeting limit for
// good. Past the daemon's capacity the backlog only grows, so every later
// bucket misses; a stall the daemon recovers from leaves a passing bucket
// behind it and does not count. The trailing run of buckets each of which
// has a failed or unsent request or a p90 above limit is where the limit
// was missed for good. A stall close to capacity can start that run
// early, with a backlog the rising rate never drains; so the knee is the
// bucket of the run where the median latency bottoms out, after which the
// backlog only grew. It returns dur when the last bucket still passes.
func (s *laneStats) knee(limit, dur, bucket time.Duration) time.Duration {
	n := int(dur / bucket)
	lats := make([][]float64, n)
	bad := make([]bool, n)
	for _, x := range s.samples {
		b := min(int(x.at/bucket), n-1)
		if math.IsInf(x.lat, 1) {
			bad[b] = true
		} else {
			lats[b] = append(lats[b], x.lat)
		}
	}
	k := n
	for b := n - 1; b >= 0; b-- {
		if !bad[b] && len(lats[b]) > 0 && quantile(lats[b], 0.9) <= ms(limit) {
			break
		}
		k = b
	}
	knee, low := k, math.Inf(1)
	for b := k; b < n; b++ {
		if len(lats[b]) > 0 {
			if m := median(lats[b]); m < low {
				knee, low = b, m
			}
		}
	}
	return time.Duration(knee) * bucket
}

// dist summarizes the latency distribution for the report.
func (s *laneStats) dist() string {
	l := s.lats(0, math.MaxInt64)
	sort.Float64s(l)
	return fmt.Sprintf("n %d p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f",
		len(l), quantile(l, 0.5), quantile(l, 0.9), quantile(l, 0.99), quantile(l, 0.999), quantile(l, 1))
}

// lane is one ordered connection to the daemon.
type lane struct {
	base   string
	client *http.Client
	tr     *tracer // nil when untraced
}

func newLane(base string, tr *tracer) *lane {
	return &lane{
		base: base,
		tr:   tr,
		client: &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (l *lane) close() { l.client.CloseIdleConnections() }

// do sends one request and returns its status (0 on a transport error).
func (l *lane) do(j job) int {
	req, err := http.NewRequest(http.MethodPost, l.base+j.path, bytes.NewReader(j.body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	var sp *span
	if l.tr != nil {
		sp = l.tr.startRequest("higgsd")
		sp.attr = j.path
		req.Header.Set(reqHeader, strconv.FormatInt(sp.req, 10))
	}
	resp, err := l.client.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if sp != nil {
		l.tr.end(sp)
	}
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

// run drives the lane on schedule a from start. Requests due within the
// schedule are all sent, late if need be, until grace after its end;
// whatever is still unsent then is the backlog.
func (l *lane) run(start time.Time, a arrivals, grace time.Duration, next func(due time.Time) job) *laneStats {
	st := &laneStats{}
	giveUp := start.Add(a.length() + grace)
	free := start // when the connection last became free
	inf := math.Inf(1)
	for i := 0; ; i++ {
		off, ok := a.due(i)
		if !ok {
			break
		}
		due := start.Add(off)
		j := next(due)
		sleepUntil(due)
		now := time.Now()
		if now.After(giveUp) {
			for ; ok; off, ok = a.due(i) {
				st.backlog++
				st.samples = append(st.samples, sample{off, inf})
				i++
			}
			break
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		st.late = append(st.late, ms(now.Sub(ready)))
		lat := inf
		for {
			st.attempted++
			code := l.do(j)
			if code >= 200 && code < 300 {
				st.ok++
				st.items += j.items
				lat = ms(time.Since(due))
				if j.onOK != nil {
					j.onOK()
				}
				break
			}
			st.failed++
			if code != http.StatusTooManyRequests {
				break
			}
			st.refused++
			if !j.ordered || time.Now().After(giveUp) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		st.samples = append(st.samples, sample{off, lat})
		free = time.Now()
	}
	return st
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// own timers wake sub-millisecond sleeps up to a millisecond late, which
// would be charged to every request as latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// writer feeds the streamed part of a workload's data, in order, to an
// ordered lane; acked collects every edge the daemon acknowledged.
type writer struct {
	lane  *lane
	data  stream.Stream // streamed edges, after the preload
	next  int           // first edge not yet handed out
	sched *schedule

	mu    sync.Mutex
	acked stream.Stream
}

func (w *writer) job(time.Time) job {
	lo := w.next
	hi := min(lo+writeBatch, len(w.data))
	w.next = hi
	batch := w.data[lo:hi]
	return job{
		path:    "/v1/ingest",
		body:    appendEdges(nil, batch),
		items:   len(batch),
		ordered: true,
		onOK: func() {
			w.mu.Lock()
			w.acked = append(w.acked, batch...)
			w.mu.Unlock()
		},
	}
}

func (w *writer) ackedCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.acked)
}

// reader turns a workload's query generator into /v2/query jobs.
type reader struct {
	lane *lane
	gen  readGen
}

func (r *reader) job(due time.Time) job {
	qs := r.gen(due)
	return job{path: "/v2/query", body: encodeQueries(qs), items: len(qs)}
}

// phase runs the write lane on schedule wa (in 64-edge batches) and the
// read lane on ra side by side; a nil schedule leaves its lane idle.
func phase(w *writer, r *reader, wa, ra arrivals, grace time.Duration) (ws, rs *laneStats) {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	ws, rs = &laneStats{}, &laneStats{}
	if wa != nil {
		w.sched.set(start, w.next, wa.rateAt(0)*writeBatch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws = w.lane.run(start, wa, grace, w.job)
		}()
	}
	if ra != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs = r.lane.run(start, ra, grace, r.job)
		}()
	}
	wg.Wait()
	return ws, rs
}

// maxRate runs one ramp of a lane and returns the offered rate
// (requests/s) at its knee.
func maxRate(run func(ramp) *laneStats, r ramp, limit time.Duration) (float64, string) {
	st := run(r)
	at := st.knee(limit, r.dur, kneeBucket)
	rate := r.rateAt(at)
	return rate, fmt.Sprintf("  %.0f→%.0f over %v: knee at %v, %.0f/s (p50 %.3f ms, %d failed, %d unsent)",
		r.from, r.to, r.dur, at, rate, st.p(0.5), st.failed, st.backlog)
}
