// Package cell implements the lightweight signaling cells of Section III-B
// of the RCBR paper: ATM-format 53-byte cells whose 48-byte payload carries
// a resource-management (RM) message. An RCBR source reuses the ABR RM-cell
// mechanism, setting the explicit-rate (ER) field to the *difference*
// between its old and new rates (paper footnote 2); to bound drift from lost
// or quantized cells, it periodically sends a resync cell carrying the
// absolute rate instead.
//
// Wire formats follow the ATM conventions where they exist: the UNI header
// layout with HEC (CRC-8, ITU-T I.432), PTI 6 for RM cells, the TM 4.0
// 16-bit floating-point rate encoding for the ER field, and CRC-10 over the
// RM payload.
package cell

import (
	"errors"
	"fmt"
	"math"
)

// Cell and field sizes in bytes.
const (
	Size        = 53
	HeaderSize  = 5
	PayloadSize = 48
)

// PTIRM is the payload type indicator of a resource-management cell.
const PTIRM = 6

// ProtocolRCBR identifies RCBR renegotiation in the RM protocol-ID byte
// (ABR uses 1; we claim an unused value).
const ProtocolRCBR = 6

// Errors returned by the parsers.
var (
	ErrShort     = errors.New("cell: buffer too short")
	ErrHEC       = errors.New("cell: header checksum (HEC) mismatch")
	ErrCRC       = errors.New("cell: payload CRC-10 mismatch")
	ErrNotRM     = errors.New("cell: not an RM cell (PTI != 6)")
	ErrProtocol  = errors.New("cell: not an RCBR RM payload")
	ErrRateRange = errors.New("cell: rate outside the 16-bit encodable range")
)

// Header is a UNI ATM cell header: GFC (4 bits), VPI (8), VCI (16), PTI (3),
// CLP (1), followed by the HEC byte computed on marshal.
type Header struct {
	GFC uint8 // 4 bits
	VPI uint8
	VCI uint16
	PTI uint8 // 3 bits
	CLP bool
}

// Validate reports the first field-range problem, or nil.
func (h Header) Validate() error {
	if h.GFC > 0xF {
		return fmt.Errorf("cell: GFC %d exceeds 4 bits", h.GFC)
	}
	if h.PTI > 7 {
		return fmt.Errorf("cell: PTI %d exceeds 3 bits", h.PTI)
	}
	return nil
}

// Marshal encodes the header with its HEC byte.
func (h Header) Marshal() ([HeaderSize]byte, error) {
	var b [HeaderSize]byte
	if err := h.Validate(); err != nil {
		return b, err
	}
	b[0] = h.GFC<<4 | h.VPI>>4
	b[1] = h.VPI<<4 | uint8(h.VCI>>12)
	b[2] = uint8(h.VCI >> 4)
	b[3] = uint8(h.VCI)<<4 | h.PTI<<1
	if h.CLP {
		b[3] |= 1
	}
	b[4] = hec(b[:4])
	return b, nil
}

// ParseHeader decodes and verifies a header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrShort
	}
	if hec(b) != b[4] {
		return Header{}, ErrHEC
	}
	return Header{
		GFC: b[0] >> 4,
		VPI: b[0]<<4 | b[1]>>4,
		VCI: uint16(b[1]&0xF)<<12 | uint16(b[2])<<4 | uint16(b[3])>>4,
		PTI: b[3] >> 1 & 7,
		CLP: b[3]&1 != 0,
	}, nil
}

// VCID returns the 24-bit VPI/VCI of the header in b[:HeaderSize] — the
// VPI in bits 16-23 and the VCI in bits 0-15, as switchfab.MakeVCID packs
// them — and whether its HEC holds. It is ParseHeader cut down to what the
// forwarder reads of a cell: no other field is decoded and no error is
// built, so it inlines into the per-cell loop. b must hold at least
// HeaderSize bytes.
func VCID(b []byte) (uint32, bool) {
	_ = b[4]
	return uint32(b[0]&0xF)<<20 | uint32(b[1])<<12 | uint32(b[2])<<4 | uint32(b[3])>>4, hec(b) == b[4]
}

// EncodeRate16 encodes a non-negative rate into the ATM TM 4.0 16-bit
// floating-point format: bit 15 = nonzero flag, bits 14..10 = exponent e,
// bits 9..0 omitted-leading-one mantissa m, value = 2^e * (1 + m/512).
// (TM 4.0 uses a 9-bit mantissa; the tenth bit is reserved-zero here.)
// Rates above the encodable maximum return ErrRateRange; zero encodes as 0.
func EncodeRate16(rate float64) (uint16, error) {
	if rate < 0 || math.IsNaN(rate) {
		return 0, fmt.Errorf("%w: %g", ErrRateRange, rate)
	}
	if rate == 0 {
		return 0, nil
	}
	e := math.Floor(math.Log2(rate))
	if e < 0 {
		// Sub-1 rates round up to the smallest encodable value.
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

// DecodeRate16 decodes the TM 4.0 16-bit rate format.
func DecodeRate16(v uint16) float64 {
	if v&(1<<15) == 0 {
		return 0
	}
	e := float64(v >> 10 & 0x1F)
	m := float64(v & 0x1FF)
	return math.Exp2(e) * (1 + m/512)
}
