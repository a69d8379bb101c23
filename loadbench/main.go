// Command loadbench is the repository's end-to-end benchmark: it boots the
// real higgsd on loopback, drives one workload's open-loop traffic at it
// over at most two connections, checks the answers against an exact
// store, and prints every metric with its unit. With --trace 1 it instead
// assembles the same stack in-process, records spans at every layer seam
// it can reach, and prints the per-layer metrics. See README.md.
//
//	loadbench --workload scan --seed 7 --seconds 20 --trace 0 \
//	    --higgsd .bench_build/higgsd --work .bench_build/work
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"higgs/internal/stream"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	higgsd   string // higgsd binary (end-to-end runs)
	work     string // scratch directory, removed at exit
	spans    string // directory the traced run writes its spans to

	scale  float64 // stream size factor; tests shrink it
	setups int     // set-ups per run; setup_s is their median
}

// lateTolerance is the generator lateness p99 above which a run is
// invalid: the load generator itself, not the daemon, was behind.
const lateTolerance = 20 * time.Millisecond

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: ingest, scan or dashboard")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced in-process run printing the per-layer metrics")
	flag.StringVar(&c.higgsd, "higgsd", "", "higgsd binary")
	flag.StringVar(&c.work, "work", "", "scratch directory (removed at exit)")
	flag.StringVar(&c.spans, "spans", "", "directory for the traced run's spans (empty: not written)")
	flag.Parse()
	c.trace = trace == 1
	c.scale, c.setups = 1, 3
	if c.work == "" || (!c.trace && c.higgsd == "") || c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "loadbench: need --workload, --work, --seconds > 0 and (without --trace 1) --higgsd")
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		_ = os.RemoveAll(c.work) // best effort on the way out
		os.Exit(3)
	}()

	rep, err := run(c)
	stopAll()
	_ = os.RemoveAll(c.work) // scratch only; a leftover is harmless
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result; its JSON form is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	header string   // seed and workload, printed first
	notes  []string // human-readable lines printed before the JSON
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // no sample: a layer the workload never reached
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// show prints a metric with its unit without putting it in the result.
func (r *report) show(name, unit string, v float64) {
	r.notes = append(r.notes, fmt.Sprintf("  %-34s %14.4f %s (printed only)", name, v, unit))
}

func (r *report) print(f *os.File) {
	fmt.Fprintln(f, r.header)
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	out, _ := json.Marshal(r) // a map of floats and strings always encodes
	fmt.Fprintln(f, string(out))
}

// data is a workload's input, all generated from the seed.
type data struct {
	pre stream.Stream // preloaded before measuring
	all stream.Stream // pre followed by the streamed edges
}

// streamed is the part of the stream sent during the run.
func (d *data) streamed() stream.Stream { return d.all[len(d.pre):] }

// prepare generates the workload's stream: the preload plus enough
// continuation that no phase can run out, sized from the time budget at
// the rates the schedules offer.
func prepare(w *workload, c config) (*data, error) {
	pre := int(float64(w.preload) * c.scale)
	p := plan(c)
	streamed := (p.fixed+p.ramp).Seconds()*w.writeEPS + p.ramp.Seconds()*w.writeRamp[1]
	all, err := w.shape.extend(c.seed, pre+allocRequests*writeBatch+int(1.1*streamed), c.scale)
	if err != nil {
		return nil, err
	}
	return &data{pre: all[:pre], all: all}, nil
}

// timing is how a run splits its measured seconds: a fixed-rate phase at
// the nominal rates, then a read ramp and a write ramp.
type timing struct {
	fixed, ramp time.Duration
}

func plan(c config) timing {
	s := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		return timing{fixed: s / 2}
	}
	return timing{fixed: s / 2, ramp: s / 4}
}

// kneeBucket is the time resolution of the ramps' knee.
const kneeBucket = 125 * time.Millisecond

func run(c config) (*report, error) {
	w, err := findWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	d, err := prepare(w, c)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Metrics: map[string]metric{},
		header:  fmt.Sprintf("loadbench workload=%s seed=%d seconds=%g trace=%v", w.name, c.seed, c.seconds, c.trace),
	}
	if c.trace {
		return rep, runTraced(c, w, d, rep)
	}
	return rep, runE2E(c, w, d, rep)
}

// setup boots a fresh stack and loads the preload through /v1/ingest in
// large ordered batches, then flushes; the stack is serving when it
// returns.
func setup(boot func() (target, error), pre stream.Stream) (target, time.Duration, error) {
	t0 := time.Now()
	t, err := boot()
	if err != nil {
		return nil, 0, err
	}
	if err := preload(t.base(), pre); err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(t0), nil
}

// preloadBatch is the edge count of a preload request: large, so the
// daemon's auto mode applies it synchronously.
const preloadBatch = 8192

func preload(base string, pre stream.Stream) error {
	var body []byte
	for lo := 0; lo < len(pre); lo += preloadBatch {
		body = appendEdges(body[:0], pre[lo:min(lo+preloadBatch, len(pre))])
		for {
			code, err := post(base, "/v1/ingest", body, nil)
			if code == 429 {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			break
		}
	}
	items, err := flush(base)
	if err != nil {
		return err
	}
	if items != int64(len(pre)) {
		return fmt.Errorf("preload: daemon holds %d items after flushing %d", items, len(pre))
	}
	return nil
}

// setups boots c.setups fresh stacks in turn and keeps the last one
// serving; setup_s is the median of their set-up times.
func setups(c config, pre stream.Stream, boot func(k int) (target, error)) (target, float64, error) {
	var times []float64
	var t target
	for k := 0; k < c.setups; k++ {
		tk, dur, err := setup(func() (target, error) { return boot(k) }, pre)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, dur.Seconds())
		if k < c.setups-1 {
			tk.stop()
		} else {
			t = tk
		}
	}
	return t, median(times), nil
}

// lanes is a run's generator: the ordered writer and the reader, each on
// its own connection.
type lanes struct {
	w   *writer
	r   *reader
	env *readEnv
}

func newLanes(base string, w *workload, c config, d *data, tr *tracer) (*lanes, error) {
	sched := &schedule{}
	env := newReadEnv(d.pre, d.all, sched)
	if err := checkHotSets(env); err != nil {
		return nil, err
	}
	return &lanes{
		w:   &writer{lane: newLane(base, tr), data: d.streamed(), sched: sched},
		r:   &reader{lane: newLane(base, tr), gen: w.reads(c.seed, env)},
		env: env,
	}, nil
}

func (l *lanes) close() {
	l.w.lane.close()
	l.r.lane.close()
}

// fixedGrace bounds how long a fixed-rate phase may run past its end to
// send what was due; nominal rates sit far below capacity, so reaching it
// means the daemon stalled, and the unsent requests count as failed.
const fixedGrace = 10 * time.Second

func runE2E(c config, w *workload, d *data, rep *report) error {
	t, setupS, err := setups(c, d.pre, func(k int) (target, error) {
		return startDaemon(c.higgsd, filepath.Join(c.work, fmt.Sprintf("daemon%d", k)))
	})
	if err != nil {
		return err
	}
	defer t.stop()
	rep.set("setup_s", "s", setupS)
	p := plan(c)
	l, err := newLanes(t.base(), w, c, d, nil)
	if err != nil {
		return err
	}
	defer l.close()

	if err := settle(t); err != nil {
		return err
	}
	cpu0, err := t.(*daemon).cpu()
	if err != nil {
		return err
	}
	ws, rs := phase(l.w, l.r, w.writeArrivals(p.fixed), w.readArrivals(p.fixed), fixedGrace)
	cpu1, err := t.(*daemon).cpu()
	if err != nil {
		return err
	}
	if err := validRun(ws, rs); err != nil {
		return err
	}
	rep.set("cpu_us_per_request", "us", us(cpu1-cpu0)/float64(ws.ok+rs.ok))
	countFailures(rep, ws, rs)
	rep.set("ok_ratio", "ratio", 1-ratio(float64(rep.Failed), float64(rep.Attempted)))
	// Latencies and max rates vary between runs on a shared 2-CPU VM by
	// more than any bound a regression gate could hold (README.md):
	// printed with their units, not in the result.
	rep.show("read_p50_ms", "ms", rs.p(0.5))
	rep.show("read_p99_ms", "ms", rs.p(0.99))
	if w.writeEPS > 0 {
		rep.show("write_p50_ms", "ms", ws.p(0.5))
		rep.show("write_p99_ms", "ms", ws.p(0.99))
	}
	rep.show("failed_ratio", "ratio", ratio(float64(rep.Failed), float64(rep.Attempted)))
	rep.notes = append(rep.notes, fmt.Sprintf("fixed phase: %d writes (%d edges), %d reads (%d items); late p99 %.3f ms",
		ws.ok, ws.items, rs.ok, rs.items, lateP99(ws, rs)),
		"  writes ms: "+ws.dist(), "  reads ms:  "+rs.dist())

	v, err := verify(t, d, l.w, c.seed)
	if err != nil {
		return err
	}
	v.record(rep)

	// Max-rate searches: one lane ramps while the other stays nominal.
	readMax, rlog := maxRate(func(r ramp) *laneStats {
		_, rs := phase(l.w, l.r, w.writeArrivals(r.dur), r, rampLimit)
		return rs
	}, ramp{from: w.readRamp[0], to: w.readRamp[1], dur: p.ramp}, rampLimit)
	rep.show("read_max_qps", "items/s", readMax*ratio(float64(rs.items), float64(rs.ok)))
	rep.notes = append(rep.notes, "read ramp (req/s):", rlog)
	if w.writeEPS > 0 {
		writeMax, wlog := maxRate(func(r ramp) *laneStats {
			ws, _ := phase(l.w, l.r, r, w.readArrivals(r.dur), rampLimit)
			return ws
		}, ramp{from: w.writeRamp[0] / writeBatch, to: w.writeRamp[1] / writeBatch, dur: p.ramp}, rampLimit)
		rep.show("write_max_eps", "edges/s", writeMax*writeBatch)
		rep.notes = append(rep.notes, "write ramp (64-edge batches/s):", wlog)
	}

	// The stream must still be whole at the end: every acknowledged edge
	// applied exactly once, none clamped.
	items, err := flush(t.base())
	if err != nil {
		return err
	}
	st, err := stats(t.base())
	if err != nil {
		return err
	}
	want := int64(len(d.pre) + l.w.ackedCount())
	if items != want || st.Total.Items != want || st.Total.Clamped != 0 {
		rep.Correct = false
		rep.notes = append(rep.notes, fmt.Sprintf("FAIL end of run: items %d (stats %d), acknowledged %d, clamped %d",
			items, st.Total.Items, want, st.Total.Clamped))
	}
	return nil
}

// settle lets the set-up's garbage be collected, in the server and in
// this process, before anything is timed.
func settle(t target) error {
	if err := t.gc(); err != nil {
		return err
	}
	runtime.GC()
	time.Sleep(settleTime)
	return nil
}

// settleTime is the idle pause before the fixed-rate phase.
const settleTime = 500 * time.Millisecond

// countFailures fills attempted and failed from a fixed-rate phase: the
// nominal load, where nothing should fail. Unsent requests count as
// failed.
func countFailures(rep *report, sts ...*laneStats) {
	for _, s := range sts {
		rep.Attempted += s.attempted + s.backlog
		rep.Failed += s.failed + s.backlog
	}
}

func lateP99(sts ...*laneStats) float64 {
	var late []float64
	for _, s := range sts {
		late = append(late, s.late...)
	}
	return quantile(late, 0.99)
}

// validRun rejects a run whose generator ran late: its latencies would
// measure the load generator, not the daemon.
func validRun(sts ...*laneStats) error {
	if l := lateP99(sts...); l > ms(lateTolerance) {
		return fmt.Errorf("invalid run: load generator late p99 %.3f ms exceeds the %v tolerance", l, lateTolerance)
	}
	return nil
}
