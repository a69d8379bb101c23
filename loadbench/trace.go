package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the client span's id to the daemon's timing wrapper,
// so the spans on both sides of the socket share one request id.
const reqHeader = "X-Loadbench-Request"

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the id of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent, req int64
	name            string
	attr            string // the endpoint, or which call of the layer
	start, end      int64
}

func (s *span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startRequest opens a root span; its id becomes the request id.
func (t *tracer) startRequest(name string) *span {
	id := t.ids.Add(1)
	return &span{id: id, req: id, name: name, start: t.now()}
}

// start opens a span caused by parent (nil: a root of request req).
func (t *tracer) start(name, attr string, parent *span, req int64) *span {
	s := &span{id: t.ids.Add(1), req: req, name: name, attr: attr, start: t.now()}
	if parent != nil {
		s.parent, s.req = parent.id, parent.req
	}
	return s
}

// end closes s and records it.
func (t *tracer) end(s *span) {
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// write stores every span as one tab-separated line:
// id parent req name attr start_ns end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tattr\tstart_ns\tend_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.attr, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (a batch
// probing two shards at once) are counted once, and a child reaching
// outside its parent counts only inside it.
func selfTimes(spans []*span) map[int64]time.Duration {
	kids := map[int64][]*span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, p.start), min(k.end, p.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}
