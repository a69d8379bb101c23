package matrix

import "testing"

func testCfg() Config {
	return Config{D: 16, B: 3, Maps: 4, FBits: 19, Timed: true}
}

// TestAddAllocs: the insert hot loop must not allocate, merging or placing.
func TestAddAllocs(t *testing.T) {
	m, err := New(testCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Add(7, 3, 9, 5, 10, 1) {
		t.Fatal("first Add rejected")
	}
	if n := testing.AllocsPerRun(1000, func() { m.Add(7, 3, 9, 5, 10, 1) }); n != 0 {
		t.Fatalf("merging Add allocates %.2f allocs/op, want 0", n)
	}
	var k uint32
	if n := testing.AllocsPerRun(100, func() {
		m.Add(100+k, k, 200+k, k, 0, 1)
		k++
	}); n != 0 {
		t.Fatalf("placing Add allocates %.2f allocs/op, want 0", n)
	}
}

// TestPoolReuse: a released slab must come back from the pool zeroed and
// with the same backing arrays.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	m, err := NewIn(p, testCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(1, 2, 3, 4, 0, 9)
	firstKey, firstVal := &m.keys[0], &m.vals[0]
	m.Release(p)
	if m.keys != nil || m.vals != nil || m.fills != nil {
		t.Fatal("Release must neutralize the matrix")
	}
	m2, err := NewIn(p, testCfg(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if &m2.keys[0] != firstKey || &m2.vals[0] != firstVal {
		t.Fatal("pooled slab not reused")
	}
	if m2.Count() != 0 {
		t.Fatalf("reused matrix reports count %d", m2.Count())
	}
	for i := range m2.keys {
		if m2.keys[i] != (key{}) || m2.vals[i] != (payload{}) {
			t.Fatalf("reused slab not zeroed at slot %d: key %+v payload %+v", i, m2.keys[i], m2.vals[i])
		}
	}
	for i := range m2.fills {
		if m2.fills[i] != 0 {
			t.Fatalf("reused fill array not zeroed at bucket %d", i)
		}
	}
}

// TestPoolCap: the pool retains at most maxSlabsPerClass slabs per size.
func TestPoolCap(t *testing.T) {
	p := NewPool()
	var ms []*Matrix
	for i := 0; i < maxSlabsPerClass+3; i++ {
		m, err := NewIn(nil, testCfg(), 0)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		m.Release(p)
	}
	slabs, _ := p.Stats()
	if slabs != maxSlabsPerClass {
		t.Fatalf("pool holds %d slabs, want cap %d", slabs, maxSlabsPerClass)
	}
}

// TestFillsTrackOccupancy: fills must sum to Count through Add sequences
// that fill buckets completely, and every slot past a bucket's prefix must
// stay all zeros, which is what lets the read sums sweep whole key blocks.
func TestFillsTrackOccupancy(t *testing.T) {
	cfg := Config{D: 4, B: 2, Maps: 2, FBits: 8, Timed: false}
	m, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 60; k++ {
		m.Add(k, k%7, k+100, (k+3)%7, 0, 1)
	}
	total := 0
	for bkt, f := range m.fills {
		base := bkt * cfg.B
		for k := int(f); k < cfg.B; k++ {
			if m.keys[base+k] != (key{}) || m.vals[base+k] != (payload{}) {
				t.Fatalf("bucket %d slot %d past fill %d is not empty", bkt, k, f)
			}
		}
		total += int(f)
	}
	if total != m.Count() {
		t.Fatalf("fills sum %d != count %d", total, m.Count())
	}
}
