package matrix

import (
	"fmt"

	"higgs/internal/wire"
)

// matrixTag guards matrix records inside snapshot streams.
const matrixTag = 0x4d58 // "MX"

// Encode writes the matrix onto w in the snapshot wire format: geometry,
// then only the occupied slots (sparse encoding), then the spill list.
func (m *Matrix) Encode(w *wire.Writer) {
	w.U64(matrixTag)
	w.U32(m.cfg.D)
	w.Int(m.cfg.B)
	w.Int(m.cfg.Maps)
	w.U64(uint64(m.cfg.FBits))
	w.Bool(m.cfg.Timed)
	w.I64(m.startT)
	w.I64(m.added)
	w.Int(m.count)
	for bkt, fill := range m.fills {
		base := bkt * m.cfg.B
		for k := base; k < base+int(fill); k++ {
			v := &m.vals[k]
			w.Int(k)
			w.U32(m.keys[k].fpS)
			w.U32(m.keys[k].fpD)
			w.U32(v.off)
			w.I64(v.w)
			w.U64(uint64(v.idx))
		}
	}
	w.Int(len(m.spill))
	for i := range m.spill {
		sp := &m.spill[i]
		w.U32(sp.fpS)
		w.U32(sp.fpD)
		w.U32(sp.baseS)
		w.U32(sp.baseD)
		w.I64(sp.w)
	}
}

// Decode reads a matrix written by Encode.
func Decode(r *wire.Reader) (*Matrix, error) {
	r.Expect(matrixTag, "matrix tag")
	cfg := Config{
		D:     r.U32(),
		B:     r.Int(),
		Maps:  r.Int(),
		FBits: uint(r.U64()),
		Timed: r.Bool(),
	}
	startT := r.I64()
	added := r.I64()
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("matrix: decode header: %w", err)
	}
	// Guard allocations against corrupted or adversarial inputs: a matrix
	// bigger than 2^28 slots (several GB) is not something this library
	// ever writes. B is bounded by division so a huge B cannot overflow
	// the product past the check.
	const maxSlots = 1 << 28
	if cfg.B > 0 && cfg.D > 0 {
		if dd := int64(cfg.D) * int64(cfg.D); dd > maxSlots || int64(cfg.B) > maxSlots/dd {
			return nil, fmt.Errorf("matrix: decode: implausible geometry %d×%d×%d", cfg.D, cfg.D, cfg.B)
		}
	}
	m, err := New(cfg, startT)
	if err != nil {
		return nil, fmt.Errorf("matrix: decode: %w", err)
	}
	if count < 0 || count > len(m.keys) {
		return nil, fmt.Errorf("matrix: decode: count %d exceeds capacity %d", count, len(m.keys))
	}
	m.added = added
	// Rebuild the per-bucket occupancy prefix from the slot indices. Encode
	// writes every bucket's slots front to back, so the next slot of a
	// bucket must sit exactly at its current fill: below it is a duplicate,
	// above it a gap, which the prefix-based mutators must not trust.
	for i := 0; i < count; i++ {
		idx := r.Int()
		if r.Err() != nil {
			break
		}
		if idx >= len(m.keys) {
			return nil, fmt.Errorf("matrix: decode: slot index %d out of range %d", idx, len(m.keys))
		}
		bkt, k := idx/m.cfg.B, idx%m.cfg.B
		switch fill := int(m.fills[bkt]); {
		case k < fill:
			return nil, fmt.Errorf("matrix: decode: duplicate slot %d", idx)
		case k > fill:
			return nil, fmt.Errorf("matrix: decode: bucket %d occupancy is not a prefix", bkt)
		}
		m.fills[bkt]++
		m.keys[idx] = key{fpS: r.U32(), fpD: r.U32()}
		m.vals[idx] = payload{off: r.U32(), w: r.I64(), idx: uint8(r.U64())}
	}
	m.count = count
	nspill := r.Int()
	if r.Err() == nil && nspill > 1<<28 {
		return nil, fmt.Errorf("matrix: decode: implausible spill count %d", nspill)
	}
	for i := 0; i < nspill && r.Err() == nil; i++ {
		m.spill = append(m.spill, spillEntry{
			fpS:   r.U32(),
			fpD:   r.U32(),
			baseS: r.U32(),
			baseD: r.U32(),
			w:     r.I64(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("matrix: decode: %w", err)
	}
	return m, nil
}
