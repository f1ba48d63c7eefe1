package cell

import (
	"encoding/binary"
	"fmt"
)

// RM is the RCBR resource-management message carried in a cell payload.
//
// Payload layout (48 bytes):
//
//	byte  0     protocol ID (ProtocolRCBR)
//	byte  1     flags: bit0 backward, bit1 response, bit2 resync,
//	            bit3 deny, bit4 decrease
//	bytes 2-3   ER: rate delta (or absolute rate when resync), TM 4.0
//	            16-bit float, big-endian
//	bytes 4-7   sequence number, big-endian
//	bytes 8-45  reserved, zero
//	bytes 46-47 bits 9..0: CRC-10 over bytes 0..45 and the two CRC bytes
//	            taken as zero (the ATM RM convention)
type RM struct {
	// Backward marks a cell returning from the network to the source
	// (carrying the grant or denial); forward cells carry the request.
	Backward bool
	// Response marks a cell that answers a request.
	Response bool
	// Resync marks ER as an absolute rate rather than a difference; sent
	// periodically to cancel drift from lost or quantized delta cells.
	Resync bool
	// Deny marks a denied renegotiation (set by the switch controller on
	// the backward cell).
	Deny bool
	// Decrease gives the sign of the delta: the source requests a rate
	// decrease. Ignored when Resync.
	Decrease bool
	// ER is the rate difference in bits/second (absolute rate when
	// Resync). Quantized by the 16-bit encoding on the wire.
	ER float64
	// Seq numbers the source's signaling cells for loss detection.
	Seq uint32
}

// flag bits in payload byte 1.
const (
	flagBackward = 1 << iota
	flagResponse
	flagResync
	flagDeny
	flagDecrease
)

// MarshalPayload encodes the message into a 48-byte RM payload.
func (m RM) MarshalPayload() ([PayloadSize]byte, error) {
	var p [PayloadSize]byte
	p[0] = ProtocolRCBR
	var f byte
	if m.Backward {
		f |= flagBackward
	}
	if m.Response {
		f |= flagResponse
	}
	if m.Resync {
		f |= flagResync
	}
	if m.Deny {
		f |= flagDeny
	}
	if m.Decrease {
		f |= flagDecrease
	}
	p[1] = f
	er, err := EncodeRate16(m.ER)
	if err != nil {
		return p, err
	}
	binary.BigEndian.PutUint16(p[2:4], er)
	binary.BigEndian.PutUint32(p[4:8], m.Seq)
	binary.BigEndian.PutUint16(p[46:48], crc10RM(p[:]))
	return p, nil
}

// ParseRM decodes and verifies a 48-byte RM payload. Reserved bytes and
// undefined flag bits must be zero and ER must be a code EncodeRate16 emits
// (reserved mantissa bit clear, zero spelled 0): the codec is strict so that
// every accepted payload re-marshals to identical wire bytes. The reserved
// rule is also what makes the CRC cheap: a payload whose reserved bytes are
// zero is checked by eight table lookups (crc10RM), and only one that will
// be refused anyway pays the byte-serial walk, which keeps the verdict of a
// bad CRC ahead of the reserved-byte one.
func ParseRM(p []byte) (RM, error) {
	if len(p) < PayloadSize {
		return RM{}, ErrShort
	}
	if p[0] != ProtocolRCBR {
		return RM{}, fmt.Errorf("%w: protocol %d", ErrProtocol, p[0])
	}
	reservedZero := rmReservedZero(p)
	var crc uint16
	if reservedZero {
		crc = crc10RM(p)
	} else {
		crc = crc10(p[:rmCRCBytes])
	}
	if crc != binary.BigEndian.Uint16(p[46:48]) {
		return RM{}, ErrCRC
	}
	if p[1]&^(flagBackward|flagResponse|flagResync|flagDeny|flagDecrease) != 0 {
		return RM{}, fmt.Errorf("%w: undefined flag bits %#x", ErrProtocol, p[1])
	}
	if !reservedZero {
		for i := 8; i < rmCRCBytes; i++ {
			if p[i] != 0 {
				return RM{}, fmt.Errorf("%w: nonzero reserved byte %d", ErrProtocol, i)
			}
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
		ER:       DecodeRate16(er),
		Seq:      binary.BigEndian.Uint32(p[4:8]),
	}, nil
}

// Build assembles a complete 53-byte RM cell for the given VPI/VCI.
func Build(h Header, m RM) ([Size]byte, error) {
	var c [Size]byte
	h.PTI = PTIRM
	hdr, err := h.Marshal()
	if err != nil {
		return c, err
	}
	payload, err := m.MarshalPayload()
	if err != nil {
		return c, err
	}
	copy(c[:HeaderSize], hdr[:])
	copy(c[HeaderSize:], payload[:])
	return c, nil
}

// Parse decodes and verifies a complete 53-byte RM cell.
func Parse(b []byte) (Header, RM, error) {
	if len(b) < Size {
		return Header{}, RM{}, ErrShort
	}
	h, err := ParseHeader(b[:HeaderSize])
	if err != nil {
		return Header{}, RM{}, err
	}
	if h.PTI != PTIRM {
		return h, RM{}, ErrNotRM
	}
	m, err := ParseRM(b[HeaderSize:Size])
	if err != nil {
		return h, RM{}, err
	}
	return h, m, nil
}
