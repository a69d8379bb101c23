// Package matrix implements the compressed matrix that HIGGS attaches to
// every tree node (paper §IV-A): a d×d grid of buckets, each holding b
// entries of the form (f(s), f(d), Δt, w) for leaf matrices and
// (f(s), f(d), w) for aggregated non-leaf matrices.
//
// The package also implements the two mechanisms the paper builds on top of
// the raw grid:
//
//   - Multiple mapping buckets (§IV-C): each vertex owns r candidate
//     addresses generated by a linear-congruential permutation; an entry
//     records its index pair (i, j) so the base address can be recovered.
//   - Shift-based aggregation (§IV-B, Alg. 2): Promote moves R fingerprint
//     bits into the address, which is exactly the address a direct hash at
//     the parent level would produce, so aggregation adds no new error.
//
// Aggregated matrices additionally carry a small spill list for the rare
// case in which entries from θ sibling children overflow a parent bucket;
// spilled entries keep full fidelity and are scanned by queries, preserving
// the paper's no-additional-error guarantee at a bounded space cost (see
// DESIGN.md §3.4).
package matrix

import (
	"fmt"
	"math"
	"unsafe"

	"higgs/internal/hashing"
)

// Config sizes a compressed matrix.
type Config struct {
	D     uint32 // dimension (d×d buckets); power of two
	B     int    // entries per bucket (paper b)
	Maps  int    // mapping positions per vertex (paper r); 1..16, ≤ D
	FBits uint   // fingerprint bits stored at this level (paper F_l); 1..32
	Timed bool   // leaf matrix: entries carry a time offset
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case !hashing.IsPow2(c.D):
		return fmt.Errorf("matrix: D = %d is not a power of two", c.D)
	case c.B < 1:
		return fmt.Errorf("matrix: B = %d, need ≥ 1", c.B)
	case c.Maps < 1 || c.Maps > 16:
		return fmt.Errorf("matrix: Maps = %d, need 1..16", c.Maps)
	case uint32(c.Maps) > c.D:
		return fmt.Errorf("matrix: Maps = %d exceeds D = %d", c.Maps, c.D)
	case c.FBits < 1 || c.FBits > 32:
		return fmt.Errorf("matrix: FBits = %d, need 1..32", c.FBits)
	default:
		return nil
	}
}

// A stored entry is split across two slot-indexed arrays. key holds the
// fingerprints, the only bytes a probe compares, so a bucket's keys sit
// together in one cache line; payload holds the rest and is read only once
// a key matches. An empty slot is all zeros in both arrays.
type key struct {
	fpS, fpD uint32
}

// payload is the cold part of a stored entry: the weight, the arrival
// offset from the matrix start time (timed matrices only) and the
// mapping-position pair (i << 4) | j.
type payload struct {
	w   int64
	off uint32
	idx uint8
}

// spillEntry preserves an edge that could not be placed during aggregation.
// It stores base addresses directly so it can be promoted further.
type spillEntry struct {
	fpS, fpD     uint32
	baseS, baseD uint32
	w            int64
}

// Element sizes of the Go representation, for HeapBytes and Pool.Stats.
const (
	keySize     = int64(unsafe.Sizeof(key{}))
	payloadSize = int64(unsafe.Sizeof(payload{}))
	spillSize   = int64(unsafe.Sizeof(spillEntry{}))
	headerSize  = int64(unsafe.Sizeof(Matrix{}))
)

// Matrix is a compressed matrix. It is not safe for concurrent mutation;
// concurrent reads are safe once construction/aggregation has finished.
//
// Within every bucket the occupied slots form a prefix: entries are only
// ever appended at the first free slot and deletion (Sub) decrements
// weights without vacating slots. fills holds the prefix length per bucket
// and is the only record of occupancy. Mutators and iterators stay on the
// prefix. The read-only sums sweep each candidate bucket's whole key block
// instead: an empty slot has a zero key and zero weight, so matching it adds
// nothing, and skipping the fills lookup saves a cache line per bucket.
type Matrix struct {
	cfg    Config
	lcg    hashing.LCG
	keys   []key     // (row*D + col)*B + k
	vals   []payload // parallel to keys
	fills  []uint8   // occupied prefix length per bucket, len D*D
	spill  []spillEntry
	count  int   // occupied slots
	startT int64 // reference time for offsets (timed matrices)
	added  int64 // items accepted (including merged duplicates)
}

// New allocates a zeroed matrix. For timed matrices, startT anchors entry
// offsets; untimed matrices ignore it.
func New(cfg Config, startT int64) (*Matrix, error) {
	return NewIn(nil, cfg, startT)
}

// NewIn is New drawing the key, payload and fill backing from p when non-nil.
// Slabs obtained from a pool are already zeroed (Pool.Put clears them), so
// steady-state reuse performs no allocation and no memclr on this path.
func NewIn(p *Pool, cfg Config, startT int64) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(cfg.D) * int(cfg.D) * cfg.B
	m := &Matrix{
		cfg:    cfg,
		lcg:    hashing.MustLCG(cfg.D),
		startT: startT,
	}
	m.keys, m.vals, m.fills = p.get(n, cfg.B)
	return m, nil
}

// Release returns the matrix's slab backing to p for reuse and neutralizes
// the matrix. The caller must guarantee no further access; p may be nil, in
// which case the backing is simply dropped for the GC.
func (m *Matrix) Release(p *Pool) {
	if m.keys != nil {
		p.put(m.keys, m.vals, m.fills)
	}
	m.keys, m.vals, m.fills, m.spill = nil, nil, nil, nil
	m.count = 0
}

// Cfg returns the matrix configuration.
func (m *Matrix) Cfg() Config { return m.cfg }

// StartT returns the reference time of a timed matrix.
func (m *Matrix) StartT() int64 { return m.startT }

// Count returns the number of occupied slots (spill excluded).
func (m *Matrix) Count() int { return m.count }

// SpillCount returns the number of spilled entries.
func (m *Matrix) SpillCount() int { return len(m.spill) }

// Capacity returns the total number of slots.
func (m *Matrix) Capacity() int { return len(m.keys) }

// Utilization returns occupied slots over capacity (paper §V-A, E(α)).
func (m *Matrix) Utilization() float64 {
	if len(m.keys) == 0 {
		return 0
	}
	return float64(m.count) / float64(len(m.keys))
}

// Added returns the number of items this matrix accepted, counting merges.
func (m *Matrix) Added() int64 { return m.added }

// block returns the slot range [lo, hi) of a bucket's whole key block.
func (m *Matrix) block(row, col uint32) (lo, hi int) {
	lo = (int(row)*int(m.cfg.D) + int(col)) * m.cfg.B
	return lo, lo + m.cfg.B
}

// occupied returns the slot range [lo, hi) of a bucket's occupied prefix.
func (m *Matrix) occupied(row, col uint32) (lo, hi int) {
	bkt := int(row)*int(m.cfg.D) + int(col)
	lo = bkt * m.cfg.B
	return lo, lo + int(m.fills[bkt])
}

func packIdx(i, j int) uint8 { return uint8(i<<4 | j) }

// Add inserts weight w for the edge identified by the fingerprint pair and
// base address pair, arriving at offset off (ignored when untimed). It
// aggregates into an existing matching entry when possible, otherwise takes
// the first free slot along the r×r candidate sequence. It reports false
// when every candidate bucket is full — the signal that HIGGS must open a
// new leaf (or overflow block).
func (m *Matrix) Add(fpS, baseS, fpD, baseD uint32, off uint32, w int64) bool {
	// Hot path: probe only the occupied prefix of each candidate bucket
	// (fills) and track where the first free slot would be. This visits the
	// same buckets in the same order as a full sweep and lands inserts in
	// the identical slot, but skips the unoccupied tail — on large, sparse
	// aggregate matrices that is almost the entire grid.
	var (
		freeBkt  = -1
		freeFill int
		freeIdx  uint8
	)
	d := int(m.cfg.D)
	dMask := m.cfg.D - 1
	bsz := m.cfg.B
	timed := m.cfg.Timed
	keys, vals := m.keys, m.vals
	fills := m.fills
	want := key{fpS, fpD}
	rowS := baseS & dMask
	for i := 0; i < m.cfg.Maps; i++ {
		colD := baseD & dMask
		rowBase := int(rowS) * d
		for j := 0; j < m.cfg.Maps; j++ {
			bkt := rowBase + int(colD)
			fill := int(fills[bkt])
			base := bkt * bsz
			idx := packIdx(i, j)
			ks := keys[base : base+fill : base+fill]
			for k := range ks {
				if ks[k] != want {
					continue
				}
				if v := &vals[base+k]; v.idx == idx && (!timed || v.off == off) {
					v.w += w
					m.added++
					return true
				}
			}
			if fill < bsz && freeBkt < 0 {
				freeBkt, freeFill, freeIdx = bkt, fill, idx
			}
			colD = m.lcg.Next(colD)
		}
		rowS = m.lcg.Next(rowS)
	}
	if freeBkt < 0 {
		return false
	}
	k := freeBkt*bsz + freeFill
	keys[k] = want
	vals[k] = payload{w: w, off: off, idx: freeIdx}
	fills[freeBkt]++
	m.count++
	m.added++
	return true
}

// Sub subtracts weight w from the entry matching the edge (and offset, for
// timed matrices). It reports whether a matching entry was found. Entries
// whose weight reaches zero remain allocated, mirroring sketch deletion.
func (m *Matrix) Sub(fpS, baseS, fpD, baseD uint32, off uint32, w int64) bool {
	want := key{fpS, fpD}
	rowS := baseS & (m.cfg.D - 1)
	for i := 0; i < m.cfg.Maps; i++ {
		colD := baseD & (m.cfg.D - 1)
		for j := 0; j < m.cfg.Maps; j++ {
			lo, hi := m.occupied(rowS, colD)
			idx := packIdx(i, j)
			for k := lo; k < hi; k++ {
				if m.keys[k] != want {
					continue
				}
				if v := &m.vals[k]; v.idx == idx && (!m.cfg.Timed || v.off == off) {
					v.w -= w
					return true
				}
			}
			colD = m.lcg.Next(colD)
		}
		rowS = m.lcg.Next(rowS)
	}
	for k := range m.spill {
		sp := &m.spill[k]
		if sp.fpS == fpS && sp.fpD == fpD && sp.baseS == baseS&(m.cfg.D-1) && sp.baseD == baseD&(m.cfg.D-1) {
			sp.w -= w
			return true
		}
	}
	return false
}

// EdgeSum returns the aggregated weight of the edge within the offset range
// [loOff, hiOff] (pass math.MinInt64/MaxInt64 for untimed matrices or fully
// covered ranges).
func (m *Matrix) EdgeSum(fpS, baseS, fpD, baseD uint32, loOff, hiOff int64) int64 {
	var sum int64
	want := key{fpS, fpD}
	rowS := baseS & (m.cfg.D - 1)
	for i := 0; i < m.cfg.Maps; i++ {
		colD := baseD & (m.cfg.D - 1)
		for j := 0; j < m.cfg.Maps; j++ {
			lo, hi := m.block(rowS, colD)
			idx := packIdx(i, j)
			ks := m.keys[lo:hi]
			for k := range ks {
				if ks[k] != want {
					continue
				}
				if v := &m.vals[lo+k]; v.idx == idx && int64(v.off) >= loOff && int64(v.off) <= hiOff {
					sum += v.w
				}
			}
			colD = m.lcg.Next(colD)
		}
		rowS = m.lcg.Next(rowS)
	}
	baseSm, baseDm := baseS&(m.cfg.D-1), baseD&(m.cfg.D-1)
	for k := range m.spill {
		sp := &m.spill[k]
		if sp.fpS == fpS && sp.fpD == fpD && sp.baseS == baseSm && sp.baseD == baseDm {
			sum += sp.w
		}
	}
	return sum
}

// RowSum returns the aggregated weight of all entries whose source matches
// the fingerprint/base pair within the offset range — the vertex (outgoing)
// query primitive (paper Eq. 2).
func (m *Matrix) RowSum(fp, base uint32, loOff, hiOff int64) int64 {
	var sum int64
	row := base & (m.cfg.D - 1)
	width := int(m.cfg.D) * m.cfg.B
	for i := 0; i < m.cfg.Maps; i++ {
		// A row's buckets are adjacent, so its key blocks form one run.
		lo := int(row) * width
		keys := m.keys[lo : lo+width]
		vals := m.vals[lo : lo+width]
		for k := range keys {
			if keys[k].fpS != fp {
				continue
			}
			if v := &vals[k]; int(v.idx>>4) == i && int64(v.off) >= loOff && int64(v.off) <= hiOff {
				sum += v.w
			}
		}
		row = m.lcg.Next(row)
	}
	baseM := base & (m.cfg.D - 1)
	for k := range m.spill {
		if m.spill[k].fpS == fp && m.spill[k].baseS == baseM {
			sum += m.spill[k].w
		}
	}
	return sum
}

// ColSum is the incoming-vertex analogue of RowSum.
func (m *Matrix) ColSum(fp, base uint32, loOff, hiOff int64) int64 {
	var sum int64
	col := base & (m.cfg.D - 1)
	bsz := m.cfg.B
	stride := int(m.cfg.D) * bsz
	for j := 0; j < m.cfg.Maps; j++ {
		for lo := int(col) * bsz; lo < len(m.keys); lo += stride {
			ks := m.keys[lo : lo+bsz]
			for k := range ks {
				if ks[k].fpD != fp {
					continue
				}
				if v := &m.vals[lo+k]; int(v.idx&0xf) == j && int64(v.off) >= loOff && int64(v.off) <= hiOff {
					sum += v.w
				}
			}
		}
		col = m.lcg.Next(col)
	}
	baseM := base & (m.cfg.D - 1)
	for k := range m.spill {
		if m.spill[k].fpD == fp && m.spill[k].baseD == baseM {
			sum += m.spill[k].w
		}
	}
	return sum
}

// Promote shifts rbits fingerprint bits into the base address (paper Alg. 2
// line 5, Example 5): the leftmost rbits of the fingerprint become the
// rightmost bits of the address. childFBits is the fingerprint width at the
// child level.
func Promote(fp, base uint32, childFBits, rbits uint) (pfp, pbase uint32) {
	if rbits == 0 {
		return fp, base
	}
	pfp = fp & (1<<(childFBits-rbits) - 1)
	pbase = base<<rbits | fp>>(childFBits-rbits)
	return pfp, pbase
}

// Absorb aggregates every entry of the child matrix into m (paper Alg. 2).
// m's fingerprint width must not exceed the child's; the difference is the
// number of promoted bits. Entries that cannot be placed are kept in m's
// spill list with full fidelity. Time offsets are dropped, as aggregated
// matrices are untimed.
func (m *Matrix) Absorb(child *Matrix) error {
	if m.cfg.Timed {
		return fmt.Errorf("matrix: cannot absorb into a timed matrix")
	}
	if child.cfg.FBits < m.cfg.FBits {
		return fmt.Errorf("matrix: child FBits %d < parent FBits %d", child.cfg.FBits, m.cfg.FBits)
	}
	rbits := child.cfg.FBits - m.cfg.FBits
	if child.cfg.D<<rbits != m.cfg.D {
		return fmt.Errorf("matrix: child D %d with %d promoted bits does not match parent D %d",
			child.cfg.D, rbits, m.cfg.D)
	}
	// Row-major over occupied buckets only, stopping once every stored
	// entry has been seen — identical visit order to a full sweep.
	d := int(child.cfg.D)
	seen := 0
	for bkt := 0; bkt < d*d && seen < child.count; bkt++ {
		fill := int(child.fills[bkt])
		if fill == 0 {
			continue
		}
		seen += fill
		row, col := uint32(bkt/d), uint32(bkt%d)
		base := bkt * child.cfg.B
		for k := base; k < base+fill; k++ {
			kk, v := child.keys[k], &child.vals[k]
			i, j := int(v.idx>>4), int(v.idx&0xf)
			baseS := child.lcg.Base(row, i)
			baseD := child.lcg.Base(col, j)
			pfpS, pbaseS := Promote(kk.fpS, baseS, child.cfg.FBits, rbits)
			pfpD, pbaseD := Promote(kk.fpD, baseD, child.cfg.FBits, rbits)
			m.addOrSpill(pfpS, pbaseS, pfpD, pbaseD, v.w)
		}
	}
	for k := range child.spill {
		sp := &child.spill[k]
		pfpS, pbaseS := Promote(sp.fpS, sp.baseS, child.cfg.FBits, rbits)
		pfpD, pbaseD := Promote(sp.fpD, sp.baseD, child.cfg.FBits, rbits)
		m.addOrSpill(pfpS, pbaseS, pfpD, pbaseD, sp.w)
	}
	return nil
}

func (m *Matrix) addOrSpill(fpS, baseS, fpD, baseD uint32, w int64) {
	if m.Add(fpS, baseS, fpD, baseD, 0, w) {
		return
	}
	baseSm, baseDm := baseS&(m.cfg.D-1), baseD&(m.cfg.D-1)
	for k := range m.spill {
		sp := &m.spill[k]
		if sp.fpS == fpS && sp.fpD == fpD && sp.baseS == baseSm && sp.baseD == baseDm {
			sp.w += w
			return
		}
	}
	m.spill = append(m.spill, spillEntry{fpS: fpS, fpD: fpD, baseS: baseSm, baseD: baseDm, w: w})
}

// EntryBits returns the packed size in bits of one stored entry at this
// level, the β of paper Theorem 1: two fingerprints, the index pair, the
// weight, and (timed only) the offset.
func (m *Matrix) EntryBits() int {
	idxBits := 2 * hashing.Log2(uint32(nextPow2(m.cfg.Maps)))
	bits := 2*int(m.cfg.FBits) + int(idxBits) + 64
	if m.cfg.Timed {
		bits += 32
	}
	return bits
}

// SpaceBytes returns the packed structural size the paper's space
// comparison counts: all slots at this level's entry width plus spilled
// entries (fingerprints, explicit addresses, weight).
func (m *Matrix) SpaceBytes() int64 {
	slotBits := int64(len(m.keys)) * int64(m.EntryBits())
	addrBits := int64(2 * hashing.Log2(m.cfg.D))
	spillBits := int64(len(m.spill)) * (2*int64(m.cfg.FBits) + addrBits + 64)
	return (slotBits + spillBits + 7) / 8
}

// HeapBytes returns the approximate resident size of the Go representation.
func (m *Matrix) HeapBytes() int64 {
	return int64(len(m.keys))*keySize + int64(len(m.vals))*payloadSize + int64(len(m.fills)) +
		int64(cap(m.spill))*spillSize + headerSize
}

// ForEach invokes fn for every occupied slot with the entry's fingerprints,
// recovered base addresses, offset, and weight, then for every spill entry
// (offset 0). Iteration order is deterministic.
func (m *Matrix) ForEach(fn func(fpS, baseS, fpD, baseD uint32, off uint32, w int64)) {
	d := int(m.cfg.D)
	seen := 0
	for bkt := 0; bkt < d*d && seen < m.count; bkt++ {
		fill := int(m.fills[bkt])
		if fill == 0 {
			continue
		}
		seen += fill
		row, col := uint32(bkt/d), uint32(bkt%d)
		base := bkt * m.cfg.B
		for k := base; k < base+fill; k++ {
			kk, v := m.keys[k], &m.vals[k]
			i, j := int(v.idx>>4), int(v.idx&0xf)
			fn(kk.fpS, m.lcg.Base(row, i), kk.fpD, m.lcg.Base(col, j), v.off, v.w)
		}
	}
	for k := range m.spill {
		sp := &m.spill[k]
		fn(sp.fpS, sp.baseS, sp.fpD, sp.baseD, 0, sp.w)
	}
}

// MaxOffset returns the largest representable offset of a timed matrix.
func MaxOffset() int64 { return math.MaxUint32 }

func nextPow2(x int) int {
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}
