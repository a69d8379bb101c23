package matrix

import "sync"

// Pool recycles matrix slab backing (the key and payload arrays plus the
// matching fill array) across matrix lifetimes, keyed by exact slot count. A
// HIGGS tree only ever uses a handful of distinct geometries — the leaf
// matrix, the overflow-block matrix, and one aggregate size per level — so
// an exact-size class map stays tiny while letting Expire hand the memory of
// dropped subtrees straight back to the insert path.
//
// Slabs are zeroed on Put, so Get returns ready-to-use backing without a
// memclr on the hot path. Pool is safe for concurrent use: parallel seal
// workers allocate aggregates while the insert goroutine opens leaves.
type Pool struct {
	mu      sync.Mutex
	classes map[int][]slab
}

type slab struct {
	keys  []key
	vals  []payload
	fills []uint8
}

// bytes is the slab's backing size.
func (s slab) bytes() int64 {
	return int64(len(s.keys))*keySize + int64(len(s.vals))*payloadSize + int64(len(s.fills))
}

// maxSlabsPerClass bounds retained memory per size class; beyond it Put
// drops the slab for the GC.
const maxSlabsPerClass = 4

// NewPool returns an empty slab pool.
func NewPool() *Pool {
	return &Pool{classes: make(map[int][]slab)}
}

// get returns a zeroed slab of exactly n slots and its fill array (n/b
// buckets), reusing pooled backing when available. A nil pool allocates.
func (p *Pool) get(n, b int) ([]key, []payload, []uint8) {
	if p != nil {
		p.mu.Lock()
		if ss := p.classes[n]; len(ss) > 0 {
			s := ss[len(ss)-1]
			p.classes[n] = ss[:len(ss)-1]
			p.mu.Unlock()
			if len(s.fills) != n/b {
				// Same slot count under a different bucket size: reshape
				// the fill array, keep the (already zeroed) slot arrays.
				s.fills = make([]uint8, n/b)
			}
			return s.keys, s.vals, s.fills
		}
		p.mu.Unlock()
	}
	return make([]key, n), make([]payload, n), make([]uint8, n/b)
}

// put zeroes the slab and retains it for reuse, up to the per-class cap.
func (p *Pool) put(keys []key, vals []payload, fills []uint8) {
	if p == nil || keys == nil {
		return
	}
	clear(keys)
	clear(vals)
	clear(fills)
	n := len(keys)
	p.mu.Lock()
	if len(p.classes[n]) < maxSlabsPerClass {
		p.classes[n] = append(p.classes[n], slab{keys: keys, vals: vals, fills: fills})
	}
	p.mu.Unlock()
}

// Stats reports the pooled slab inventory: number of retained slabs and
// their total backing bytes.
func (p *Pool) Stats() (slabs int, bytes int64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ss := range p.classes {
		slabs += len(ss)
		for _, s := range ss {
			bytes += s.bytes()
		}
	}
	return slabs, bytes
}
