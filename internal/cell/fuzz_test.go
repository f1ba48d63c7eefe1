package cell

import (
	"math"
	"testing"
)

// FuzzParse hammers the full-cell parser with arbitrary bytes: it must never
// panic, and anything it accepts must re-marshal to the same wire bytes
// (parse/build round trip).
func FuzzParse(f *testing.F) {
	good, err := Build(Header{VCI: 42}, cell())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:])
	f.Add(make([]byte, Size))
	f.Add([]byte{})
	f.Add(good[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, m, err := Parse(data)
		if err != nil {
			return
		}
		rebuilt, err := Build(h, m)
		if err != nil {
			t.Fatalf("accepted cell fails to rebuild: %v", err)
		}
		// The ER field is quantized on first encode, so re-encoding the
		// decoded value must be exact; every byte must match.
		for i := range rebuilt {
			if rebuilt[i] != data[i] {
				t.Fatalf("byte %d: rebuilt %#x != input %#x", i, rebuilt[i], data[i])
			}
		}
	})
}

func cell() RM {
	return RM{ER: 374e3, Seq: 7, Resync: true}
}

// FuzzRate16 checks the 16-bit rate codec over the whole code space:
// decoding any code and re-encoding must be idempotent. It also encodes an
// arbitrary float64, given by its bits so that +Inf, NaN, negatives,
// subnormals and rates above the top code are all reachable, and holds the
// result to the logarithm-based reference: the same code or the same error.
func FuzzRate16(f *testing.F) {
	f.Add(uint16(0), math.Float64bits(0))
	f.Add(uint16(1<<15), math.Float64bits(1))
	f.Add(uint16(0xFFFF), math.Float64bits(math.Inf(1)))
	f.Add(uint16(0x8001), math.Float64bits(math.NaN()))
	f.Add(uint16(0x7FFF), math.Float64bits(-374e3))
	f.Add(uint16(0x8400), math.Float64bits(math.SmallestNonzeroFloat64))
	f.Add(uint16(0xFDFF), math.Float64bits(0x1p32))
	f.Fuzz(func(t *testing.T, v uint16, bits uint64) {
		r := DecodeRate16(v)
		if r < 0 || math.IsNaN(r) {
			t.Fatalf("decode(%#x) = %v", v, r)
		}
		v2, err := EncodeRate16(r)
		if err != nil {
			t.Fatalf("re-encode of decoded %v: %v", r, err)
		}
		if DecodeRate16(v2) != r {
			t.Fatalf("codec not idempotent: %#x -> %v -> %#x -> %v",
				v, r, v2, DecodeRate16(v2))
		}
		checkEncodeMatchesRef(t, math.Float64frombits(bits))
	})
}
