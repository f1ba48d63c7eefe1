package cell

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// encodeRate16Ref is the logarithm-based encoder the Frexp form replaced.
func encodeRate16Ref(rate float64) (uint16, error) {
	if rate < 0 || math.IsNaN(rate) {
		return 0, fmt.Errorf("%w: %g", ErrRateRange, rate)
	}
	if rate == 0 {
		return 0, nil
	}
	e := math.Floor(math.Log2(rate))
	if e < 0 {
		e = 0
	}
	if e > 31 {
		return 0, fmt.Errorf("%w: %g", ErrRateRange, rate)
	}
	m := math.Round((rate/math.Exp2(e) - 1) * 512)
	if m >= 512 {
		m = 0
		e++
		if e > 31 {
			return 0, fmt.Errorf("%w: %g", ErrRateRange, rate)
		}
	}
	if m < 0 {
		m = 0
	}
	return 1<<15 | uint16(e)<<10 | uint16(m), nil
}

// decodeRate16Ref is the Exp2-based decoder the Ldexp form replaced.
func decodeRate16Ref(v uint16) float64 {
	if v&(1<<15) == 0 {
		return 0
	}
	e := float64(v >> 10 & 0x1F)
	m := float64(v & 0x1FF)
	return math.Exp2(e) * (1 + m/512)
}

// parseRMRef is ParseRM before the sliced CRC: the byte-serial CRC over
// all 46 checked bytes, then the flag and reserved-byte checks.
func parseRMRef(p []byte) (RM, error) {
	if len(p) < PayloadSize {
		return RM{}, ErrShort
	}
	if p[0] != ProtocolRCBR {
		return RM{}, fmt.Errorf("%w: protocol %d", ErrProtocol, p[0])
	}
	want := binary.BigEndian.Uint16(p[46:48])
	if crc10Ref(p[:PayloadSize-2]) != want {
		return RM{}, ErrCRC
	}
	if p[1]&^(flagBackward|flagResponse|flagResync|flagDeny|flagDecrease) != 0 {
		return RM{}, fmt.Errorf("%w: undefined flag bits %#x", ErrProtocol, p[1])
	}
	for i := 8; i < PayloadSize-2; i++ {
		if p[i] != 0 {
			return RM{}, fmt.Errorf("%w: nonzero reserved byte %d", ErrProtocol, i)
		}
	}
	er := binary.BigEndian.Uint16(p[2:4])
	if er&(1<<9) != 0 || er&(1<<15) == 0 && er != 0 {
		return RM{}, fmt.Errorf("%w: non-canonical rate code %#x", ErrProtocol, er)
	}
	f := p[1]
	return RM{
		Backward: f&flagBackward != 0,
		Response: f&flagResponse != 0,
		Resync:   f&flagResync != 0,
		Deny:     f&flagDeny != 0,
		Decrease: f&flagDecrease != 0,
		ER:       decodeRate16Ref(er),
		Seq:      binary.BigEndian.Uint32(p[4:8]),
	}, nil
}

// checkEncodeMatchesRef fails unless EncodeRate16 and the reference give
// the same code, or the same error, for rate.
func checkEncodeMatchesRef(t *testing.T, rate float64) {
	t.Helper()
	got, err := EncodeRate16(rate)
	want, wantErr := encodeRate16Ref(rate)
	if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("EncodeRate16(%v = %#x) = %#x, %v; reference %#x, %v",
			rate, math.Float64bits(rate), got, err, want, wantErr)
	}
}

// TestRate16MatchesReferenceExhaustive walks all 65,536 codes: each decodes
// to the reference's value, bit for bit, and the encoder agrees with the
// reference at that value, at its two float64 neighbours, and at the
// midpoint to the next code up (the rounding boundary) and its neighbours.
func TestRate16MatchesReferenceExhaustive(t *testing.T) {
	for c := 0; c <= math.MaxUint16; c++ {
		v := uint16(c)
		x := DecodeRate16(v)
		if ref := decodeRate16Ref(v); math.Float64bits(x) != math.Float64bits(ref) {
			t.Fatalf("DecodeRate16(%#x) = %v, reference %v", v, x, ref)
		}
		// The next code's value: one mantissa step up, 2^(e-9), or 1 above 0.
		next := 1.0
		if x > 0 {
			next = x + math.Ldexp(1, int(v>>10&0x1F)-9)
		}
		mid := (x + next) / 2
		for _, r := range []float64{
			x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)),
			mid, math.Nextafter(mid, math.Inf(-1)), math.Nextafter(mid, math.Inf(1)),
		} {
			checkEncodeMatchesRef(t, r)
		}
	}
	for _, r := range []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), -1,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0.5, math.MaxFloat64, 0x1p32, 1e12,
	} {
		checkEncodeMatchesRef(t, r)
	}
}

// TestParseRMMatchesReference runs ParseRM and the byte-serial reference
// over payloads built to reach every verdict: valid ones, single bit flips
// anywhere, nonzero reserved bytes under a recomputed (good) CRC and under
// the old one, and random bytes behind a valid protocol byte.
func TestParseRMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	check := func(p []byte) {
		t.Helper()
		got, err := ParseRM(p)
		want, wantErr := parseRMRef(p)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseRM(%x) = %+v, %v; reference %+v, %v", p, got, err, want, wantErr)
		}
	}
	for trial := 0; trial < 20_000; trial++ {
		m := RM{
			Backward: rng.Intn(2) == 0, Response: rng.Intn(2) == 0, Resync: rng.Intn(2) == 0,
			Deny: rng.Intn(2) == 0, Decrease: rng.Intn(2) == 0,
			ER: DecodeRate16(uint16(rng.Intn(1 << 16))), Seq: rng.Uint32(),
		}
		good, err := m.MarshalPayload()
		if err != nil {
			t.Fatal(err)
		}
		check(good[:])
		flipped := good
		bit := rng.Intn(PayloadSize * 8)
		flipped[bit/8] ^= 1 << (bit % 8)
		check(flipped[:])
		reserved := good
		reserved[8+rng.Intn(rmCRCBytes-8)] = byte(1 + rng.Intn(255))
		check(reserved[:]) // the marshalled CRC no longer matches
		binary.BigEndian.PutUint16(reserved[46:48], crc10Ref(reserved[:rmCRCBytes]))
		check(reserved[:])
		var random [PayloadSize]byte
		rng.Read(random[:])
		random[0] = ProtocolRCBR
		if rng.Intn(2) == 0 {
			binary.BigEndian.PutUint16(random[46:48], crc10Ref(random[:rmCRCBytes]))
		}
		check(random[:])
	}
}

// FuzzParseRM holds ParseRM to the byte-serial reference on any payload:
// the same message or the same error.
func FuzzParseRM(f *testing.F) {
	good, err := cell().MarshalPayload()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:])
	reserved := good
	reserved[20] = 1
	f.Add(reserved[:])
	binary.BigEndian.PutUint16(reserved[46:48], crc10Ref(reserved[:rmCRCBytes]))
	f.Add(reserved[:])
	f.Add(make([]byte, PayloadSize))
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := ParseRM(p)
		want, wantErr := parseRMRef(p)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseRM(%x) = %+v, %v; reference %+v, %v", p, got, err, want, wantErr)
		}
	})
}
