package core

import (
	"bytes"
	"os"
	"testing"

	"higgs/internal/stream"
)

// loadFixtureStream regenerates the deterministic stream the committed
// pre-refactor fixtures were built from (lkml preset, scale 0.25, hash
// seed 42 — see testdata/README).
func loadFixtureStream(t *testing.T) (stream.Stream, Config) {
	t.Helper()
	st, err := stream.Load(stream.Lkml, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 42
	return st, cfg
}

// TestSnapshotFixtureRoundTrip proves the arena-backed layout reads
// snapshots written by the pre-refactor pointer-linked layout and
// re-encodes them byte-for-byte — the equivalence contract behind the
// bench gates.
func TestSnapshotFixtureRoundTrip(t *testing.T) {
	for _, name := range []string{"testdata/prerefactor_open.higgs", "testdata/prerefactor_final.higgs"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(raw, buf.Bytes()) {
			t.Fatalf("%s: re-encode differs (%d vs %d bytes)", name, buf.Len(), len(raw))
		}
	}
}

// TestSnapshotFixtureRebuild replays the fixture stream through the
// current implementation and requires the snapshot bytes to equal the
// committed pre-refactor output — mid-stream (open spine) and finalized.
func TestSnapshotFixtureRebuild(t *testing.T) {
	st, cfg := loadFixtureStream(t)

	s := MustNew(cfg)
	for _, e := range st[:len(st)/2] {
		s.Insert(e)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/prerefactor_open.higgs")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("open snapshot differs from pre-refactor fixture (%d vs %d bytes)", buf.Len(), len(raw))
	}
	// The open snapshot must keep accepting the rest of the stream and then
	// match the finalized fixture exactly.
	restored, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, s2 := range []*Summary{s, restored} {
		for _, e := range st[len(st)/2:] {
			s2.Insert(e)
		}
		s2.Finalize()
	}
	want, err := os.ReadFile("testdata/prerefactor_final.higgs")
	if err != nil {
		t.Fatal(err)
	}
	for i, s2 := range []*Summary{s, restored} {
		var out bytes.Buffer
		if _, err := s2.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, out.Bytes()) {
			t.Fatalf("final snapshot %d differs from pre-refactor fixture (%d vs %d bytes)", i, out.Len(), len(want))
		}
	}
}

// TestSteadyStateInsertAllocs: re-inserting an existing (s, d, t) item
// merges into its leaf slot — the steady-state ingest hot loop — and must
// not allocate.
func TestSteadyStateInsertAllocs(t *testing.T) {
	s := MustNew(DefaultConfig())
	e := stream.Edge{S: 1, D: 2, W: 1, T: 100}
	s.Insert(e)
	if n := testing.AllocsPerRun(1000, func() { s.Insert(e) }); n != 0 {
		t.Fatalf("steady-state Insert allocates %.2f allocs/op, want 0", n)
	}
}

// finalizedFixture builds the finalized summary of the fixture stream.
func finalizedFixture(t *testing.T) *Summary {
	t.Helper()
	st, cfg := loadFixtureStream(t)
	s := MustNew(cfg)
	for _, e := range st {
		s.Insert(e)
	}
	s.Finalize()
	return s
}

// TestEdgeWeightAllocs: the edge-query hot loop must not allocate.
func TestEdgeWeightAllocs(t *testing.T) {
	s := finalizedFixture(t)
	if n := testing.AllocsPerRun(1000, func() { s.EdgeWeight(5, 7, 0, 1<<40) }); n != 0 {
		t.Fatalf("EdgeWeight allocates %.2f allocs/op, want 0", n)
	}
}

// TestVertexProbeAllocs: the vertex-query hot loops must not allocate.
func TestVertexProbeAllocs(t *testing.T) {
	s := finalizedFixture(t)
	if n := testing.AllocsPerRun(200, func() { s.VertexOut(5, 0, 1<<40) }); n != 0 {
		t.Fatalf("VertexOut allocates %.2f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.VertexIn(7, 0, 1<<40) }); n != 0 {
		t.Fatalf("VertexIn allocates %.2f allocs/op, want 0", n)
	}
}

// TestExpireRecyclesArena: after Expire, the matrix slabs and arena slots
// of dropped subtrees must feed subsequent growth — the pool holds slabs
// right after expiry, new leaves consume them, and node slots are reused.
func TestExpireRecyclesArena(t *testing.T) {
	st, cfg := loadFixtureStream(t)
	s := MustNew(cfg)
	half := len(st) / 2
	for _, e := range st[:half] {
		s.Insert(e)
	}
	nodesBefore := s.ar.liveNodes()
	cutoff := st[half-1].T / 2
	if dropped := s.Expire(cutoff); dropped == 0 {
		t.Fatalf("Expire(%d) dropped nothing; fixture stream should have old leaves", cutoff)
	}
	if s.ar.liveNodes() >= nodesBefore {
		t.Fatalf("live nodes %d not reduced from %d by Expire", s.ar.liveNodes(), nodesBefore)
	}
	slabs, bytes := s.pool.Stats()
	if slabs == 0 || bytes == 0 {
		t.Fatalf("pool empty after Expire (slabs=%d bytes=%d); dropped slabs must be recycled", slabs, bytes)
	}
	// Growth after expiry must consume pooled slabs, not allocate fresh ones.
	for _, e := range st[half:] {
		s.Insert(e)
	}
	slabsAfter, _ := s.pool.Stats()
	if slabsAfter >= slabs {
		t.Fatalf("pool still holds %d slabs (was %d); new leaves should reuse them", slabsAfter, slabs)
	}
	// Queries over the surviving window still answer with one-sided error.
	s.Finalize()
	if got := s.EdgeWeight(st[half].S, st[half].D, cutoff, 1<<40); got < 0 {
		t.Fatalf("negative weight %d after expire", got)
	}
}
