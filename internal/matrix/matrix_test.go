package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"higgs/internal/hashing"
)

func mustNew(t testing.TB, cfg Config, startT int64) *Matrix {
	t.Helper()
	m, err := New(cfg, startT)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{D: 0, B: 3, Maps: 4, FBits: 19},
		{D: 15, B: 3, Maps: 4, FBits: 19},
		{D: 16, B: 0, Maps: 4, FBits: 19},
		{D: 16, B: 3, Maps: 0, FBits: 19},
		{D: 16, B: 3, Maps: 17, FBits: 19},
		{D: 2, B: 3, Maps: 4, FBits: 19}, // Maps > D
		{D: 16, B: 3, Maps: 4, FBits: 0},
		{D: 16, B: 3, Maps: 4, FBits: 33},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if _, err := New(bad[0], 0); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestAddAndEdgeSum(t *testing.T) {
	m := mustNew(t, Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 100)
	if !m.Add(5, 3, 9, 7, 10, 2) {
		t.Fatal("insert into empty matrix failed")
	}
	if got := m.EdgeSum(5, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 2 {
		t.Fatalf("EdgeSum = %d, want 2", got)
	}
	// Same edge, same offset: aggregates in place.
	if !m.Add(5, 3, 9, 7, 10, 3) {
		t.Fatal("aggregate insert failed")
	}
	if got := m.EdgeSum(5, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 5 {
		t.Fatalf("EdgeSum after merge = %d, want 5", got)
	}
	if m.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (merged)", m.Count())
	}
	// Same edge, different offset: separate entry, both visible.
	if !m.Add(5, 3, 9, 7, 20, 7) {
		t.Fatal("second-offset insert failed")
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	if got := m.EdgeSum(5, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 12 {
		t.Fatalf("EdgeSum total = %d, want 12", got)
	}
	// Offset range filters.
	if got := m.EdgeSum(5, 3, 9, 7, 0, 15); got != 5 {
		t.Fatalf("EdgeSum [0,15] = %d, want 5", got)
	}
	if got := m.EdgeSum(5, 3, 9, 7, 15, 25); got != 7 {
		t.Fatalf("EdgeSum [15,25] = %d, want 7", got)
	}
	if got := m.EdgeSum(5, 3, 9, 7, 30, 90); got != 0 {
		t.Fatalf("EdgeSum [30,90] = %d, want 0", got)
	}
	// Unknown edge reads zero.
	if got := m.EdgeSum(6, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 0 {
		t.Fatalf("unknown edge EdgeSum = %d, want 0", got)
	}
}

func TestUntimedIgnoresOffset(t *testing.T) {
	m := mustNew(t, Config{D: 8, B: 2, Maps: 2, FBits: 12}, 0)
	m.Add(1, 2, 3, 4, 10, 5)
	m.Add(1, 2, 3, 4, 99, 6) // different "offset" must still merge
	if m.Count() != 1 {
		t.Fatalf("Count = %d, want 1", m.Count())
	}
	if got := m.EdgeSum(1, 2, 3, 4, math.MinInt64, math.MaxInt64); got != 11 {
		t.Fatalf("EdgeSum = %d, want 11", got)
	}
}

func TestAddFailsWhenCandidatesFull(t *testing.T) {
	// Maps=1, B=1: a single candidate bucket with one slot per edge.
	m := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	if !m.Add(1, 0, 1, 0, 0, 1) {
		t.Fatal("first insert failed")
	}
	// Different fingerprint, same bucket: must fail.
	if m.Add(2, 0, 2, 0, 0, 1) {
		t.Fatal("insert into full bucket should fail")
	}
	// The original edge can still aggregate.
	if !m.Add(1, 0, 1, 0, 0, 1) {
		t.Fatal("aggregation into full bucket should succeed")
	}
}

func TestMMBRescuesConflicts(t *testing.T) {
	// With Maps=4 an edge has 16 candidate buckets; filling the base bucket
	// must not make inserts fail.
	m := mustNew(t, Config{D: 16, B: 1, Maps: 4, FBits: 16, Timed: true}, 0)
	placed := 0
	for fp := uint32(1); fp <= 10; fp++ {
		if m.Add(fp, 5, fp, 9, 0, 1) {
			placed++
		}
	}
	if placed < 10 {
		t.Fatalf("only %d/10 conflicting edges placed with MMB", placed)
	}
	for fp := uint32(1); fp <= 10; fp++ {
		if got := m.EdgeSum(fp, 5, fp, 9, math.MinInt64, math.MaxInt64); got != 1 {
			t.Fatalf("edge fp=%d EdgeSum = %d, want 1", fp, got)
		}
	}
}

func TestRowColSum(t *testing.T) {
	m := mustNew(t, Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 0)
	// Three edges out of (fp=7, base=2) and one unrelated edge.
	m.Add(7, 2, 1, 1, 5, 10)
	m.Add(7, 2, 2, 6, 6, 20)
	m.Add(7, 2, 3, 9, 7, 30)
	m.Add(8, 3, 1, 1, 5, 100)
	if got := m.RowSum(7, 2, math.MinInt64, math.MaxInt64); got != 60 {
		t.Fatalf("RowSum = %d, want 60", got)
	}
	if got := m.RowSum(7, 2, 6, 7); got != 50 {
		t.Fatalf("RowSum [6,7] = %d, want 50", got)
	}
	if got := m.RowSum(9, 2, math.MinInt64, math.MaxInt64); got != 0 {
		t.Fatalf("RowSum unknown fp = %d, want 0", got)
	}
	// Incoming side: destination (fp=1, base=1) receives 10 + 100.
	if got := m.ColSum(1, 1, math.MinInt64, math.MaxInt64); got != 110 {
		t.Fatalf("ColSum = %d, want 110", got)
	}
	if got := m.ColSum(1, 1, 5, 5); got != 110 {
		t.Fatalf("ColSum [5,5] = %d, want 110", got)
	}
}

func TestSub(t *testing.T) {
	m := mustNew(t, Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 0)
	m.Add(5, 3, 9, 7, 10, 8)
	if !m.Sub(5, 3, 9, 7, 10, 3) {
		t.Fatal("Sub did not find entry")
	}
	if got := m.EdgeSum(5, 3, 9, 7, math.MinInt64, math.MaxInt64); got != 5 {
		t.Fatalf("after Sub = %d, want 5", got)
	}
	if m.Sub(6, 3, 9, 7, 10, 1) {
		t.Fatal("Sub found nonexistent entry")
	}
	if m.Sub(5, 3, 9, 7, 11, 1) {
		t.Fatal("Sub matched wrong offset on timed matrix")
	}
}

// TestPromoteMatchesDirectHash is the paper's no-additional-error invariant
// (§IV-B): promoting (fp, addr) from level l to l+1 must equal splitting the
// original hash directly at level l+1.
func TestPromoteMatchesDirectHash(t *testing.T) {
	const (
		f1 = 19
		d1 = 16
	)
	f := func(h uint64, levels uint8) bool {
		l := uint(levels%8) + 1 // parent level 2..9
		fp, addr := hashing.Split(h, f1, d1)
		// Promote one bit at a time up to level l.
		for i := uint(1); i < l; i++ {
			fp, addr = Promote(fp, addr, f1-(i-1), 1)
		}
		wantFp, wantAddr := hashing.Split(h, f1-(l-1), d1<<(l-1))
		return fp == wantFp && addr == wantAddr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPromoteRZero(t *testing.T) {
	fp, base := Promote(0x55, 3, 8, 0)
	if fp != 0x55 || base != 3 {
		t.Fatalf("Promote with rbits=0 changed values: %x %d", fp, base)
	}
}

func TestAbsorb(t *testing.T) {
	const (
		childF = 10
		d      = 8
	)
	h := hashing.NewHasher(7)
	children := make([]*Matrix, 4)
	type edge struct{ s, d uint64 }
	inserted := map[edge]int64{}
	rng := rand.New(rand.NewSource(3))
	for i := range children {
		children[i] = mustNew(t, Config{D: d, B: 3, Maps: 4, FBits: childF, Timed: true}, int64(i*100))
		for n := 0; n < 40; n++ {
			s, dv := uint64(rng.Intn(30)), uint64(rng.Intn(30))
			fpS, baseS := hashing.Split(h.Hash(s), childF, d)
			fpD, baseD := hashing.Split(h.Hash(dv), childF, d)
			if children[i].Add(fpS, baseS, fpD, baseD, uint32(n), 1) {
				inserted[edge{s, dv}]++
			}
		}
	}
	parent := mustNew(t, Config{D: d << 1, B: 3, Maps: 4, FBits: childF - 1}, 0)
	for _, c := range children {
		if err := parent.Absorb(c); err != nil {
			t.Fatal(err)
		}
	}
	// Every inserted edge must be readable at the parent level with at
	// least its true weight (one-sided error).
	for e, w := range inserted {
		fpS, baseS := hashing.Split(h.Hash(e.s), childF-1, d<<1)
		fpD, baseD := hashing.Split(h.Hash(e.d), childF-1, d<<1)
		got := parent.EdgeSum(fpS, baseS, fpD, baseD, math.MinInt64, math.MaxInt64)
		if got < w {
			t.Fatalf("edge %v: parent EdgeSum = %d < true %d (aggregation lost weight)", e, got, w)
		}
	}
	// Total weight is conserved exactly.
	var total, childTotal int64
	parent.ForEach(func(_, _, _, _ uint32, _ uint32, w int64) { total += w })
	for _, c := range children {
		c.ForEach(func(_, _, _, _ uint32, _ uint32, w int64) { childTotal += w })
	}
	if total != childTotal {
		t.Fatalf("aggregation changed total weight: parent %d vs children %d", total, childTotal)
	}
}

func TestAbsorbValidation(t *testing.T) {
	timed := mustNew(t, Config{D: 8, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	child := mustNew(t, Config{D: 8, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	if err := timed.Absorb(child); err == nil {
		t.Error("absorb into timed matrix should fail")
	}
	parent := mustNew(t, Config{D: 8, B: 1, Maps: 1, FBits: 9}, 0)
	if err := parent.Absorb(child); err == nil {
		t.Error("absorb with growing FBits should fail")
	}
	parent2 := mustNew(t, Config{D: 32, B: 1, Maps: 1, FBits: 7}, 0)
	if err := parent2.Absorb(child); err == nil {
		t.Error("absorb with mismatched geometry should fail")
	}
}

func TestAbsorbSpill(t *testing.T) {
	// rbits = 0 and a parent of the same size as four fully loaded
	// children forces spills; no weight may be lost and spilled edges must
	// remain queryable.
	children := make([]*Matrix, 4)
	var want int64
	for i := range children {
		children[i] = mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
		// Fill every bucket with a distinct fingerprint per child.
		for r := uint32(0); r < 2; r++ {
			for c := uint32(0); c < 2; c++ {
				fp := uint32(i)*16 + r*4 + c + 1
				if !children[i].Add(fp, r, fp, c, 0, 1) {
					t.Fatal("fill insert failed")
				}
				want++
			}
		}
	}
	parent := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8}, 0)
	for _, c := range children {
		if err := parent.Absorb(c); err != nil {
			t.Fatal(err)
		}
	}
	if parent.SpillCount() == 0 {
		t.Fatal("expected spills, got none")
	}
	var total int64
	parent.ForEach(func(_, _, _, _ uint32, _ uint32, w int64) { total += w })
	if total != want {
		t.Fatalf("total after spill-absorb = %d, want %d", total, want)
	}
	// A spilled edge answers its edge query.
	for i := 0; i < 4; i++ {
		for r := uint32(0); r < 2; r++ {
			for c := uint32(0); c < 2; c++ {
				fp := uint32(i)*16 + r*4 + c + 1
				if got := parent.EdgeSum(fp, r, fp, c, math.MinInt64, math.MaxInt64); got != 1 {
					t.Fatalf("edge fp=%d = %d, want 1", fp, got)
				}
			}
		}
	}
	// Row sums include spills.
	var rowTotal int64
	for fp := uint32(1); fp < 64; fp++ {
		for r := uint32(0); r < 2; r++ {
			rowTotal += parent.RowSum(fp, r, math.MinInt64, math.MaxInt64)
		}
	}
	if rowTotal != want {
		t.Fatalf("row totals = %d, want %d", rowTotal, want)
	}
}

func TestSubInSpill(t *testing.T) {
	parent := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8}, 0)
	child := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	child.Add(1, 0, 1, 0, 0, 5)
	child2 := mustNew(t, Config{D: 2, B: 1, Maps: 1, FBits: 8, Timed: true}, 0)
	child2.Add(2, 0, 2, 0, 0, 7)
	if err := parent.Absorb(child); err != nil {
		t.Fatal(err)
	}
	if err := parent.Absorb(child2); err != nil {
		t.Fatal(err)
	}
	if parent.SpillCount() != 1 {
		t.Fatalf("SpillCount = %d, want 1", parent.SpillCount())
	}
	if !parent.Sub(2, 0, 2, 0, 0, 3) {
		t.Fatal("Sub did not reach spill entry")
	}
	if got := parent.EdgeSum(2, 0, 2, 0, math.MinInt64, math.MaxInt64); got != 4 {
		t.Fatalf("spilled edge after Sub = %d, want 4", got)
	}
}

func TestUtilizationAndSpace(t *testing.T) {
	m := mustNew(t, Config{D: 4, B: 2, Maps: 2, FBits: 10, Timed: true}, 0)
	if m.Utilization() != 0 {
		t.Fatal("empty matrix should have zero utilization")
	}
	m.Add(1, 0, 1, 0, 0, 1)
	if m.Count() != 1 || m.Capacity() != 32 {
		t.Fatalf("Count/Capacity = %d/%d, want 1/32", m.Count(), m.Capacity())
	}
	if m.Utilization() != 1.0/32 {
		t.Fatalf("Utilization = %g", m.Utilization())
	}
	// Entry bits: 2*10 fp + 2*1 idx + 64 w + 32 off = 118.
	if got := m.EntryBits(); got != 118 {
		t.Fatalf("EntryBits = %d, want 118", got)
	}
	if m.SpaceBytes() != (32*118+7)/8 {
		t.Fatalf("SpaceBytes = %d", m.SpaceBytes())
	}
	if m.HeapBytes() <= 0 {
		t.Fatal("HeapBytes must be positive")
	}
}

func TestForEachRecoversBases(t *testing.T) {
	m := mustNew(t, Config{D: 16, B: 2, Maps: 4, FBits: 12, Timed: true}, 0)
	type rec struct{ fpS, baseS, fpD, baseD, off uint32 }
	want := map[rec]int64{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		r := rec{
			fpS:   uint32(rng.Intn(1 << 12)),
			baseS: uint32(rng.Intn(16)),
			fpD:   uint32(rng.Intn(1 << 12)),
			baseD: uint32(rng.Intn(16)),
			off:   uint32(rng.Intn(50)),
		}
		if m.Add(r.fpS, r.baseS, r.fpD, r.baseD, r.off, 1) {
			want[r]++
		}
	}
	got := map[rec]int64{}
	m.ForEach(func(fpS, baseS, fpD, baseD, off uint32, w int64) {
		got[rec{fpS, baseS, fpD, baseD, off}] += w
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach saw %d records, want %d", len(got), len(want))
	}
	for r, w := range want {
		if got[r] != w {
			t.Fatalf("record %+v: got %d, want %d", r, got[r], w)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	m, err := New(Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 0)
	if err != nil {
		b.Fatal(err)
	}
	h := hashing.NewHasher(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs, hd := h.Hash(uint64(i)), h.Hash(uint64(i+1))
		fpS, baseS := hashing.Split(hs, 19, 16)
		fpD, baseD := hashing.Split(hd, 19, 16)
		if !m.Add(fpS, baseS, fpD, baseD, uint32(i%100), 1) {
			b.StopTimer()
			m, _ = New(Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 0)
			b.StartTimer()
		}
	}
}

// TestZeroFingerprintOnEmptySlots: the read sums sweep whole key blocks, so
// a probe for fingerprint 0 at base 0 and index pair (0,0) also matches
// every empty slot of its candidate buckets. Those must add nothing, and
// the prefix-bound mutators must never touch them.
func TestZeroFingerprintOnEmptySlots(t *testing.T) {
	full := [2]int64{math.MinInt64, math.MaxInt64}
	for _, win := range [][2]int64{full, {0, 0}} {
		m := mustNew(t, Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 0)
		// Bucket (0,0) ends up two-thirds full; every other candidate is empty.
		m.Add(0, 0, 0, 0, 0, 5)
		m.Add(7, 0, 9, 0, 0, 11)
		if got := m.EdgeSum(0, 0, 0, 0, win[0], win[1]); got != 5 {
			t.Errorf("window %v: EdgeSum(0,0) = %d, want 5", win, got)
		}
		if got := m.RowSum(0, 0, win[0], win[1]); got != 5 {
			t.Errorf("window %v: RowSum(0) = %d, want 5", win, got)
		}
		if got := m.ColSum(0, 0, win[0], win[1]); got != 5 {
			t.Errorf("window %v: ColSum(0) = %d, want 5", win, got)
		}
	}

	// Sub of an absent (0,0) edge must not match an empty slot.
	m := mustNew(t, Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}, 0)
	m.Add(7, 0, 9, 0, 0, 11)
	keys := append([]key(nil), m.keys...)
	vals := append([]payload(nil), m.vals...)
	if m.Sub(0, 0, 0, 0, 0, 1) {
		t.Fatal("Sub matched an absent (0,0) edge")
	}
	for i := range keys {
		if m.keys[i] != keys[i] || m.vals[i] != vals[i] {
			t.Fatalf("Sub of an absent edge changed slot %d: %+v %+v", i, m.keys[i], m.vals[i])
		}
	}

	// A weight Sub-ed to zero keeps its slot: Count holds and a later Add
	// of the same edge merges into it.
	m.Add(0, 0, 0, 0, 0, 5)
	if !m.Sub(0, 0, 0, 0, 0, 5) {
		t.Fatal("Sub did not find the (0,0) edge")
	}
	if m.Count() != 2 || m.fills[0] != 2 {
		t.Fatalf("after Sub to zero: Count = %d, fill = %d, want 2, 2", m.Count(), m.fills[0])
	}
	if got := m.EdgeSum(0, 0, 0, 0, math.MinInt64, math.MaxInt64); got != 0 {
		t.Fatalf("EdgeSum after Sub to zero = %d, want 0", got)
	}
	m.Add(0, 0, 0, 0, 0, 2)
	if m.Count() != 2 {
		t.Fatalf("re-Add after Sub to zero took a new slot: Count = %d", m.Count())
	}
	if got := m.EdgeSum(0, 0, 0, 0, math.MinInt64, math.MaxInt64); got != 2 {
		t.Fatalf("EdgeSum after re-Add = %d, want 2", got)
	}
}

// TestHeapBytesMatchesLayout pins HeapBytes and Pool.Stats to the sizes of
// the arrays a matrix actually holds, so the accounting follows the layout.
func TestHeapBytesMatchesLayout(t *testing.T) {
	for _, cfg := range []Config{testCfg(), {D: 64, B: 1, Maps: 4, FBits: 10}} {
		p := NewPool()
		m, err := NewIn(p, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		backing := int64(len(m.keys))*int64(unsafe.Sizeof(m.keys[0])) +
			int64(len(m.vals))*int64(unsafe.Sizeof(m.vals[0])) +
			int64(len(m.fills))*int64(unsafe.Sizeof(m.fills[0]))
		if got, want := m.HeapBytes(), backing+int64(unsafe.Sizeof(*m)); got != want {
			t.Errorf("%+v: HeapBytes = %d, want %d", cfg, got, want)
		}
		m.Release(p)
		if _, got := p.Stats(); got != backing {
			t.Errorf("%+v: pooled bytes = %d, want %d", cfg, got, backing)
		}
	}
}
