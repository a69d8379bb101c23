package main

import (
	"math"
	"testing"
	"time"
)

// TestSelfTimes checks the self-time arithmetic on a synthetic span tree:
// overlapping children are counted once, a child overhanging its parent
// counts only inside it, and a grandchild is charged to its own parent.
func TestSelfTimes(t *testing.T) {
	root := &span{id: 1, name: "higgsd", start: 0, end: 100}
	a := &span{id: 2, parent: 1, name: "wrap", start: 10, end: 30}
	b := &span{id: 3, parent: 1, name: "server", start: 20, end: 50}
	c := &span{id: 4, parent: 1, name: "query", start: 90, end: 120}
	g := &span{id: 5, parent: 2, name: "rcache", start: 12, end: 18}
	lone := &span{id: 6, name: "analytics", start: 5, end: 9}
	self := selfTimes([]*span{root, a, b, c, g, lone})
	want := map[int64]time.Duration{
		1: 50, // 100 minus the union [10,50] ∪ [90,100]
		2: 14, // 20 minus the grandchild's 6
		3: 30,
		4: 30,
		5: 6,
		6: 4,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredMergesAdjacentAndNested(t *testing.T) {
	p := &span{start: 0, end: 100}
	kids := []*span{
		{start: 40, end: 60},
		{start: 0, end: 10},
		{start: 10, end: 20}, // touches the previous one
		{start: 45, end: 55}, // nested
		{start: 200, end: 300},
	}
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered %d, want 40", got)
	}
}

// TestKneeIgnoresRecoveredStalls: a stall the daemon recovers from leaves
// a passing bucket behind it; only the trailing run of misses counts.
func TestKneeIgnoresRecoveredStalls(t *testing.T) {
	var s laneStats
	bucket := 100 * time.Millisecond
	for b := 0; b < 10; b++ {
		lat := 1.0
		switch {
		case b == 3:
			lat = 50 // one stall
		case b >= 6:
			lat = 30 + float64(b) // the backlog grows from bucket 6 on
		}
		for i := 0; i < 20; i++ {
			s.samples = append(s.samples, sample{at: time.Duration(b)*bucket + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	if k := s.knee(10*time.Millisecond, time.Second, bucket); k != 600*time.Millisecond {
		t.Fatalf("knee %v, want 600ms", k)
	}
	s.samples = append(s.samples, sample{at: 950 * time.Millisecond, lat: math.Inf(1)})
	if k := s.knee(100*time.Millisecond, time.Second, bucket); k != 900*time.Millisecond {
		t.Fatalf("knee with a failed last request %v, want 900ms", k)
	}
}

// TestKneeAfterStallNearCapacity: a stall close to capacity leaves a
// backlog that drains, then grows again once the rate passes capacity;
// the knee is where it bottoms out, not where the limit was first missed.
func TestKneeAfterStallNearCapacity(t *testing.T) {
	var s laneStats
	bucket := 100 * time.Millisecond
	medians := []float64{1, 1, 1, 1, 40, 30, 20, 30, 45, 60}
	for b, m := range medians {
		for i := 0; i < 20; i++ {
			s.samples = append(s.samples, sample{at: time.Duration(b)*bucket + time.Duration(i)*time.Millisecond, lat: m})
		}
	}
	if k := s.knee(10*time.Millisecond, time.Second, bucket); k != 600*time.Millisecond {
		t.Fatalf("knee %v, want 600ms", k)
	}
}

func TestRampArrivals(t *testing.T) {
	r := ramp{from: 100, to: 800, dur: 2 * time.Second}
	var n int
	prev := time.Duration(-1)
	for ; ; n++ {
		at, ok := r.due(n)
		if !ok {
			break
		}
		if at <= prev {
			t.Fatalf("due(%d) = %v not after %v", n, at, prev)
		}
		prev = at
	}
	// ∫ from·e^{at} dt over the ramp = (to − from)/a.
	want := (r.to - r.from) / r.growth()
	if math.Abs(float64(n)-want) > 1 {
		t.Fatalf("%d requests in the ramp, want %.1f", n, want)
	}
	if got := r.rateAt(r.dur); math.Abs(got-r.to) > 1e-9 {
		t.Fatalf("rate at the end %v, want %v", got, r.to)
	}
	s := steady{rate: 50, dur: time.Second}
	if _, ok := s.due(50); ok {
		t.Fatal("steady schedule runs past its duration")
	}
}
