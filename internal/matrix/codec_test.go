package matrix

import (
	"bytes"
	"strings"
	"testing"

	"higgs/internal/wire"
)

// rawEntry is one occupied slot as the wire format carries it.
type rawEntry struct {
	slot     int
	fpS, fpD uint32
	w        int64
}

// encodeRaw hand-writes a matrix record with the given count and slot list,
// bypassing Encode so tests can craft records Encode never produces.
func encodeRaw(t *testing.T, cfg Config, count int, entries []rawEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.U64(matrixTag)
	w.U32(cfg.D)
	w.Int(cfg.B)
	w.Int(cfg.Maps)
	w.U64(uint64(cfg.FBits))
	w.Bool(cfg.Timed)
	w.I64(0) // startT
	w.I64(int64(len(entries)))
	w.Int(count)
	for _, e := range entries {
		w.Int(e.slot)
		w.U32(e.fpS)
		w.U32(e.fpD)
		w.U32(0) // off
		w.I64(e.w)
		w.U64(0) // idx
	}
	w.Int(0) // spill
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeRejects pins the error Decode returns for each kind of corrupt
// occupancy record, and that the well-formed variant still decodes.
func TestDecodeRejects(t *testing.T) {
	cfg := Config{D: 2, B: 3, Maps: 1, FBits: 8}
	capacity := 2 * 2 * 3
	for _, tc := range []struct {
		name    string
		count   int
		entries []rawEntry
		want    string // "" means Decode must succeed
	}{
		{"well formed", 3, []rawEntry{{0, 1, 2, 5}, {1, 3, 4, 6}, {6, 7, 8, 9}}, ""},
		{"duplicate slot", 2, []rawEntry{{0, 1, 2, 5}, {0, 3, 4, 6}}, "matrix: decode: duplicate slot 0"},
		{"non-prefix occupancy", 1, []rawEntry{{4, 1, 2, 5}}, "matrix: decode: bucket 1 occupancy is not a prefix"},
		{"slot index out of range", 1, []rawEntry{{capacity, 1, 2, 5}}, "matrix: decode: slot index 12 out of range 12"},
		{"count above capacity", capacity + 1, nil, "matrix: decode: count 13 exceeds capacity 12"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := encodeRaw(t, cfg, tc.count, tc.entries)
			m, err := Decode(wire.NewReader(bytes.NewReader(raw)))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if m.Count() != tc.count {
					t.Fatalf("Count = %d, want %d", m.Count(), tc.count)
				}
				var out bytes.Buffer
				w := wire.NewWriter(&out)
				m.Encode(w)
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), raw) {
					t.Fatal("re-encode differs from the decoded record")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsOverflowingGeometry: a bucket size whose slot count
// overflows int64 must be rejected before any allocation.
func TestDecodeRejectsOverflowingGeometry(t *testing.T) {
	cfg := Config{D: 2, B: 1 << 61, Maps: 1, FBits: 8}
	raw := encodeRaw(t, cfg, 0, nil)
	_, err := Decode(wire.NewReader(bytes.NewReader(raw)))
	if want := "implausible geometry"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Decode error = %v, want %q", err, want)
	}
}
