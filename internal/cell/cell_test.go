package cell

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"rcbr/internal/stats"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{GFC: 3, VPI: 42, VCI: 0xABC, PTI: PTIRM, CLP: true}
	b, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHeader(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(gfc, vpi uint8, vci uint16, pti uint8, clp bool) bool {
		h := Header{GFC: gfc & 0xF, VPI: vpi, VCI: vci & 0xFFFF, PTI: pti & 7, CLP: clp}
		b, err := h.Marshal()
		if err != nil {
			return false
		}
		got, err := ParseHeader(b[:])
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := (Header{GFC: 16}).Marshal(); err == nil {
		t.Error("GFC overflow accepted")
	}
	if _, err := (Header{PTI: 8}).Marshal(); err == nil {
		t.Error("PTI overflow accepted")
	}
}

func TestHECDetectsCorruption(t *testing.T) {
	h := Header{VPI: 1, VCI: 2, PTI: PTIRM}
	b, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < HeaderSize; i++ {
		corrupt := b
		corrupt[i] ^= 0x40
		if _, err := ParseHeader(corrupt[:]); err == nil {
			t.Errorf("corruption in byte %d undetected", i)
		}
	}
	if _, err := ParseHeader(b[:3]); !errors.Is(err, ErrShort) {
		t.Errorf("short header: %v", err)
	}
}

// TestVCIDMatchesParseHeader ties the forwarder's reader to ParseHeader:
// for every 24-bit id, under GFC/PTI/CLP settings that include a nonzero
// GFC nibble, VCID returns the id ParseHeader decodes (VPI<<16 | VCI) and
// the same verdict; every single-bit flip of the five header bytes is
// refused by both.
func TestVCIDMatchesParseHeader(t *testing.T) {
	settings := []Header{
		{},
		{GFC: 0xF, PTI: 7, CLP: true},
		{GFC: 0xA, PTI: PTIRM},
		{GFC: 0x5, PTI: 1, CLP: true},
	}
	for _, s := range settings {
		for id := uint32(0); id < 1<<24; id++ {
			h := s
			h.VPI, h.VCI = uint8(id>>16), uint16(id)
			b, err := h.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			got, ok := VCID(b[:])
			ph, err := ParseHeader(b[:])
			if err != nil || !ok {
				t.Fatalf("%+v: VCID ok=%v, ParseHeader err=%v", h, ok, err)
			}
			if want := uint32(ph.VPI)<<16 | uint32(ph.VCI); got != want || got != id {
				t.Fatalf("%+v: VCID %#x, ParseHeader %#x, encoded %#x", h, got, want, id)
			}
			// The flips, on one id in 4099 (a prime stride, so every byte
			// value recurs in every field) and on the ends of the range.
			if id%4099 != 0 && id != 1<<24-1 {
				continue
			}
			for bit := 0; bit < 8*HeaderSize; bit++ {
				c := b
				c[bit/8] ^= 1 << (bit % 8)
				if _, ok := VCID(c[:]); ok {
					t.Fatalf("%+v: VCID accepted bit %d flipped", h, bit)
				}
				if _, err := ParseHeader(c[:]); !errors.Is(err, ErrHEC) {
					t.Fatalf("%+v: ParseHeader with bit %d flipped: %v", h, bit, err)
				}
			}
		}
	}
	// Arbitrary bytes, mostly bad HECs: the verdicts agree throughout.
	rng := stats.NewRNG(42)
	for trial := 0; trial < 100_000; trial++ {
		var b [HeaderSize]byte
		v := rng.Uint64()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		if trial%2 == 0 {
			b[4] = hecRef(b[:4]) // half of them valid
		}
		got, ok := VCID(b[:])
		ph, err := ParseHeader(b[:])
		if ok != (err == nil) || ok && got != uint32(ph.VPI)<<16|uint32(ph.VCI) {
			t.Fatalf("% x: VCID (%#x, %v), ParseHeader (%+v, %v)", b, got, ok, ph, err)
		}
	}
}

func TestRate16KnownValues(t *testing.T) {
	cases := []struct {
		rate float64
		want float64 // decoded value
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{1536, 1536},     // 2^10 * 1.5
		{374000, 374000}, // paper's mean rate, within quantization
	}
	for _, c := range cases {
		v, err := EncodeRate16(c.rate)
		if err != nil {
			t.Fatalf("encode %v: %v", c.rate, err)
		}
		got := DecodeRate16(v)
		tol := c.want / 512
		if math.Abs(got-c.want) > tol+1e-12 {
			t.Errorf("rate %v decoded to %v (tol %v)", c.rate, got, tol)
		}
	}
}

func TestRate16Quantization(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		rate := math.Exp(r.Float64()*21 + 1) // ~e..e^22, covers video rates
		v, err := EncodeRate16(rate)
		if err != nil {
			return false
		}
		got := DecodeRate16(v)
		// Relative quantization error bounded by one mantissa step.
		return math.Abs(got-rate)/rate < 1.0/256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRate16Errors(t *testing.T) {
	if _, err := EncodeRate16(-1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := EncodeRate16(math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := EncodeRate16(1e12); !errors.Is(err, ErrRateRange) {
		t.Errorf("huge rate: %v", err)
	}
	// Max encodable value round trips.
	max := math.Exp2(31) * (1 + 511.0/512)
	if _, err := EncodeRate16(max); err != nil {
		t.Errorf("max rate rejected: %v", err)
	}
	// Tiny positive rates round up to 1.
	v, err := EncodeRate16(0.25)
	if err != nil || DecodeRate16(v) < 0.99 {
		t.Errorf("sub-1 rate: %v %v", DecodeRate16(v), err)
	}
}

func TestRMRoundTrip(t *testing.T) {
	m := RM{
		Backward: true, Response: true, Resync: false, Deny: true,
		Decrease: true, ER: 128000, Seq: 12345,
	}
	p, err := m.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRM(p[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Backward != m.Backward || got.Response != m.Response ||
		got.Resync != m.Resync || got.Deny != m.Deny ||
		got.Decrease != m.Decrease || got.Seq != m.Seq {
		t.Fatalf("flags/seq mismatch: %+v vs %+v", got, m)
	}
	if math.Abs(got.ER-m.ER)/m.ER > 1.0/256 {
		t.Fatalf("ER %v too far from %v", got.ER, m.ER)
	}
}

func TestRMRoundTripProperty(t *testing.T) {
	f := func(flags uint8, seq uint32, rateSeed uint64) bool {
		r := stats.NewRNG(rateSeed)
		m := RM{
			Backward: flags&1 != 0,
			Response: flags&2 != 0,
			Resync:   flags&4 != 0,
			Deny:     flags&8 != 0,
			Decrease: flags&16 != 0,
			ER:       math.Floor(r.Float64() * 1e6),
			Seq:      seq,
		}
		p, err := m.MarshalPayload()
		if err != nil {
			return false
		}
		got, err := ParseRM(p[:])
		if err != nil {
			return false
		}
		return got.Backward == m.Backward && got.Response == m.Response &&
			got.Resync == m.Resync && got.Deny == m.Deny &&
			got.Decrease == m.Decrease && got.Seq == m.Seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRC10DetectsCorruption(t *testing.T) {
	m := RM{ER: 64000, Seq: 7}
	p, err := m.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 5, 40, 46, 47} {
		corrupt := p
		corrupt[i] ^= 0x10
		if _, err := ParseRM(corrupt[:]); !errors.Is(err, ErrCRC) {
			t.Errorf("corruption at byte %d: err = %v", i, err)
		}
	}
}

func TestParseRMErrors(t *testing.T) {
	if _, err := ParseRM(make([]byte, 10)); !errors.Is(err, ErrShort) {
		t.Errorf("short: %v", err)
	}
	p := make([]byte, PayloadSize)
	p[0] = 1 // ABR, not RCBR
	if _, err := ParseRM(p); !errors.Is(err, ErrProtocol) {
		t.Errorf("protocol: %v", err)
	}
	// Rate codes EncodeRate16 never emits decode to a rate that re-encodes
	// to other bytes, so a payload carrying one is refused even under a
	// good CRC: the reserved mantissa bit, and a zero with bits set.
	for _, er := range []uint16{1<<15 | 1<<9, 1 << 9, 1} {
		good, err := RM{ER: 64000, Seq: 7}.MarshalPayload()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint16(good[2:4], er)
		binary.BigEndian.PutUint16(good[46:48], crc10(good[:PayloadSize-2]))
		if _, err := ParseRM(good[:]); !errors.Is(err, ErrProtocol) {
			t.Errorf("rate code %#x: %v", er, err)
		}
	}
}

func TestFullCellRoundTrip(t *testing.T) {
	h := Header{VPI: 9, VCI: 777}
	m := RM{ER: 256000, Seq: 99, Resync: true}
	c, err := Build(h, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != Size {
		t.Fatalf("cell size %d", len(c))
	}
	gh, gm, err := Parse(c[:])
	if err != nil {
		t.Fatal(err)
	}
	if gh.VCI != 777 || gh.PTI != PTIRM {
		t.Fatalf("header %+v", gh)
	}
	if !gm.Resync || gm.Seq != 99 {
		t.Fatalf("rm %+v", gm)
	}
}

func TestParseCellErrors(t *testing.T) {
	if _, _, err := Parse(make([]byte, 10)); !errors.Is(err, ErrShort) {
		t.Errorf("short: %v", err)
	}
	// Valid header, but a data cell (PTI 0): not RM.
	h := Header{VCI: 5, PTI: 0}
	hb, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var c [Size]byte
	copy(c[:], hb[:])
	if _, _, err := Parse(c[:]); !errors.Is(err, ErrNotRM) {
		t.Errorf("non-RM: %v", err)
	}
}

func TestDeltaDriftAndResync(t *testing.T) {
	// Applying quantized deltas accumulates drift; a resync cell cancels
	// it. This is exactly footnote 2's concern and remedy.
	rates := []float64{100e3, 500e3, 230e3, 1.2e6, 374e3}
	var switchView float64 // rate as tracked by the switch from deltas
	var prev float64
	for _, r := range rates {
		delta := r - prev
		m := RM{ER: math.Abs(delta), Decrease: delta < 0}
		p, err := m.MarshalPayload()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseRM(p[:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Decrease {
			switchView -= got.ER
		} else {
			switchView += got.ER
		}
		prev = r
	}
	drift := math.Abs(switchView - prev)
	if drift == 0 {
		t.Log("no quantization drift for this sequence (unusual but legal)")
	}
	// Resync.
	m := RM{ER: prev, Resync: true}
	p, err := m.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRM(p[:])
	if err != nil {
		t.Fatal(err)
	}
	switchView = got.ER
	if math.Abs(switchView-prev)/prev > 1.0/256 {
		t.Fatalf("resync left error %v", math.Abs(switchView-prev))
	}
}
