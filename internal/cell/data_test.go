package cell

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// hecRef is the bit-serial CRC-8 definition the lookup table replaced.
func hecRef(b []byte) byte {
	var crc byte
	for _, x := range b {
		crc ^= x
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc ^ 0x55
}

// crc10Ref is the bit-serial CRC-10 definition the lookup table replaced.
func crc10Ref(b []byte) uint16 {
	const poly = 0x633
	var crc uint16
	for _, x := range b {
		crc ^= uint16(x) << 2
		for i := 0; i < 8; i++ {
			if crc&0x200 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		crc &= 0x3FF
	}
	return crc
}

func TestCRCTablesMatchBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		if got, want := crc10(buf), crc10Ref(buf); got != want {
			t.Fatalf("crc10(%x) = %#x, bit-serial %#x", buf, got, want)
		}
	}
	// hec is the sliced form over a four-byte header: every single-byte
	// header at each position pins one table each (position 3 the byte
	// table itself), random headers their XOR.
	for pos := 0; pos < 4; pos++ {
		for x := 0; x < 256; x++ {
			var hdr [4]byte
			hdr[pos] = byte(x)
			if got, want := hec(hdr[:]), hecRef(hdr[:]); got != want {
				t.Fatalf("hec(%x) = %#x, bit-serial %#x", hdr, got, want)
			}
		}
	}
	for trial := 0; trial < 100_000; trial++ {
		var hdr [4]byte
		rng.Read(hdr[:])
		if got, want := hec(hdr[:]), hecRef(hdr[:]); got != want {
			t.Fatalf("hec(%x) = %#x, bit-serial %#x", hdr, got, want)
		}
	}
}

func TestDataCellRoundTrip(t *testing.T) {
	payload := []byte("honestly counted drops")
	h := Header{VPI: 7, VCI: 1042, PTI: 1, CLP: true}
	var c [Size]byte
	if err := PutData(&c, h, payload); err != nil {
		t.Fatal(err)
	}
	got, p, err := ParseData(c[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip: %+v != %+v", got, h)
	}
	if !bytes.Equal(p[:len(payload)], payload) {
		t.Fatalf("payload %q != %q", p[:len(payload)], payload)
	}
	for i := len(payload); i < PayloadSize; i++ {
		if p[i] != 0 {
			t.Fatalf("tail byte %d not zeroed: %#x", i, p[i])
		}
	}
	if &p[0] != &c[HeaderSize] {
		t.Fatal("ParseData payload is not a zero-copy subslice of the input")
	}
}

func TestPutDataReusedBufferZeroesTail(t *testing.T) {
	var c [Size]byte
	if err := PutData(&c, Header{VCI: 1}, bytes.Repeat([]byte{0xFF}, PayloadSize)); err != nil {
		t.Fatal(err)
	}
	if err := PutData(&c, Header{VCI: 1}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	_, p, err := ParseData(c[:])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < PayloadSize; i++ {
		if p[i] != 0 {
			t.Fatalf("stale byte %d survived buffer reuse: %#x", i, p[i])
		}
	}
}

func TestDataCellErrors(t *testing.T) {
	var c [Size]byte
	if err := PutData(&c, Header{PTI: PTIRM}, nil); !errors.Is(err, ErrNotData) {
		t.Fatalf("PTI 6 PutData: got %v, want ErrNotData", err)
	}
	if err := PutData(&c, Header{GFC: 0x1F}, nil); err == nil {
		t.Fatal("invalid GFC accepted")
	}
	if err := PutData(&c, Header{}, make([]byte, PayloadSize+1)); !errors.Is(err, ErrPayload) {
		t.Fatalf("oversize payload: got %v, want ErrPayload", err)
	}
	if _, _, err := ParseData(c[:Size-1]); !errors.Is(err, ErrShort) {
		t.Fatalf("short buffer: got %v, want ErrShort", err)
	}
	if err := PutData(&c, Header{VCI: 9}, nil); err != nil {
		t.Fatal(err)
	}
	c[4] ^= 0xFF
	if _, _, err := ParseData(c[:]); !errors.Is(err, ErrHEC) {
		t.Fatalf("corrupt HEC: got %v, want ErrHEC", err)
	}
	rm, err := Build(Header{VCI: 9}, RM{ER: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseData(rm[:]); !errors.Is(err, ErrNotData) {
		t.Fatalf("RM cell through ParseData: got %v, want ErrNotData", err)
	}
}

func TestAppendData(t *testing.T) {
	b := []byte("prefix")
	b, err := AppendData(b, Header{VPI: 1, VCI: 2}, []byte{0xAB})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 6+Size {
		t.Fatalf("appended length %d, want %d", len(b), 6+Size)
	}
	h, p, err := ParseData(b[6:])
	if err != nil {
		t.Fatal(err)
	}
	if h.VPI != 1 || h.VCI != 2 || p[0] != 0xAB {
		t.Fatalf("append round trip: %+v payload[0]=%#x", h, p[0])
	}
	if _, err := AppendData(nil, Header{PTI: 5}, nil); !errors.Is(err, ErrNotData) {
		t.Fatalf("AppendData bad PTI: got %v, want ErrNotData", err)
	}
}
