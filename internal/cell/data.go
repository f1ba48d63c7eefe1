package cell

import "errors"

// Data-cell codec. A data cell is any cell whose PTI has the high bit clear
// (PTI 0-3, ATM user data); the 48-byte payload is opaque to the switch.
// Unlike the RM codec, which decodes into a struct, the data codec is
// zero-copy in both directions: PutData assembles a cell in a caller-owned
// buffer and ParseData returns the payload as a subslice of the input, so
// the per-cell forwarding path never allocates or copies beyond the cell
// itself.

// Errors returned by the data-cell codec.
var (
	ErrNotData = errors.New("cell: not a data cell (PTI >= 4)")
	ErrPayload = errors.New("cell: payload exceeds 48 bytes")
)

// PutData assembles a complete data cell into buf: marshaled header,
// payload, and a zeroed tail when the payload is shorter than 48 bytes.
// The header's PTI must name a data cell (0-3).
func PutData(buf *[Size]byte, h Header, payload []byte) error {
	if h.PTI&4 != 0 {
		return ErrNotData
	}
	if len(payload) > PayloadSize {
		return ErrPayload
	}
	hdr, err := h.Marshal()
	if err != nil {
		return err
	}
	copy(buf[:HeaderSize], hdr[:])
	n := HeaderSize + copy(buf[HeaderSize:], payload)
	for i := n; i < Size; i++ {
		buf[i] = 0
	}
	return nil
}

// AppendData appends a marshaled data cell to b and returns the extended
// slice, in the usual append style. Unlike PutData it may grow b.
func AppendData(b []byte, h Header, payload []byte) ([]byte, error) {
	var c [Size]byte
	if err := PutData(&c, h, payload); err != nil {
		return b, err
	}
	return append(b, c[:]...), nil
}

// ParseData verifies the header (HEC) of a data cell and returns it along
// with the 48-byte payload as a subslice of b — no copy; the payload
// aliases b and is valid only as long as b is.
func ParseData(b []byte) (Header, []byte, error) {
	if len(b) < Size {
		return Header{}, nil, ErrShort
	}
	h, err := ParseHeader(b[:HeaderSize])
	if err != nil {
		return Header{}, nil, err
	}
	if h.PTI&4 != 0 {
		return h, nil, ErrNotData
	}
	return h, b[HeaderSize:Size], nil
}
