// Package netproto carries RCBR signaling over UDP: call setup and teardown
// on the heavyweight path, and 53-byte RM cells (package cell) on the
// lightweight renegotiation path, addressed to a switch daemon (package
// switchfab). The framing is a single datagram per message:
//
//	byte  0    magic 0xC5
//	byte  1    version
//	byte  2    message type
//	bytes 3-6  request id (echoed in replies), big-endian
//	bytes 7-   type-specific payload
//
// Renegotiation retransmission safety: a delta RM cell is not idempotent, so
// on timeout the client falls back to a resync cell carrying the absolute
// target rate, which is safe to repeat (footnote 2's drift repair doubles as
// the retry mechanism).
//
// An RM frame (TypeRM, and its TypeRMReply) carries k whole RM cells back to
// back, 1 <= k <= MaxRMBatch: a single renegotiation is the frame of one
// cell, which is all this package's Client sends; the server takes any k,
// one cell per VC, and answers cell by cell. cell.Build and cell.Parse are
// the only RM codec on the wire, and there is one framing version: a peer
// either speaks it or answers ErrVersion.
//
// Error replies (TypeErr) carry a one-byte error code ahead of the message
// text, mapping the switch's sentinel errors onto the wire so clients can
// match them with errors.Is.
//
// Allocation discipline: every encoder is an Append* function that writes
// into a caller-provided buffer, so the steady-state renegotiation path
// (client request encode, server reply encode, both decodes) runs without
// heap allocation.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// Wire constants.
const (
	Magic = 0xC5
	// Version is the framing version of every message.
	Version = 2

	headerLen = 7
	maxFrame  = 512
)

// Message types.
const (
	TypeSetup uint8 = iota + 1
	TypeSetupOK
	TypeErr
	TypeTeardown
	TypeTeardownOK
	TypeRM
	TypeRMReply
)

// MaxRMBatch is the most RM cells one frame carries: what fits in maxFrame
// behind the header (9 cells, a 484-byte datagram).
const MaxRMBatch = (maxFrame - headerLen) / cell.Size

// Errors returned by the codec.
var (
	ErrFrame   = errors.New("netproto: malformed frame")
	ErrVersion = errors.New("netproto: unsupported version")
)

// Frame is a decoded signaling datagram.
type Frame struct {
	Version uint8
	Type    uint8
	ReqID   uint32
	Payload []byte
}

// appendHeader writes the common frame header.
func appendHeader(b []byte, typ uint8, reqID uint32) []byte {
	b = append(b, Magic, Version, typ)
	var id [4]byte
	binary.BigEndian.PutUint32(id[:], reqID)
	return append(b, id[:]...)
}

// ParseFrame decodes a datagram's framing.
func ParseFrame(b []byte) (Frame, error) {
	if len(b) < headerLen {
		return Frame{}, ErrFrame
	}
	if b[0] != Magic {
		return Frame{}, fmt.Errorf("%w: bad magic %#x", ErrFrame, b[0])
	}
	if b[1] != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrVersion, b[1])
	}
	return Frame{
		Version: b[1],
		Type:    b[2],
		ReqID:   binary.BigEndian.Uint32(b[3:7]),
		Payload: b[headerLen:],
	}, nil
}

// SetupReq is the payload of TypeSetup.
type SetupReq struct {
	VCI  uint16
	Port uint16
	Rate float64 // bits/second
}

// AppendSetup appends a setup request datagram to dst and returns the
// extended buffer.
func AppendSetup(dst []byte, reqID uint32, req SetupReq) []byte {
	dst = appendHeader(dst, TypeSetup, reqID)
	var p [12]byte
	binary.BigEndian.PutUint16(p[0:2], req.VCI)
	binary.BigEndian.PutUint16(p[2:4], req.Port)
	binary.BigEndian.PutUint64(p[4:12], math.Float64bits(req.Rate))
	return append(dst, p[:]...)
}

// DecodeSetup parses a setup payload. The rate is validated here, at the
// wire boundary: all 2^64 bit patterns are reachable from the network, and a
// NaN rate would pass a bare negative check downstream only to poison the
// port's reserved accounting forever (every later capacity comparison
// involving NaN is false). Non-finite and negative rates fail with
// switchfab.ErrInvalidRate so the reply carries the same wire code as an
// in-process rejection.
func DecodeSetup(p []byte) (SetupReq, error) {
	if len(p) < 12 {
		return SetupReq{}, ErrFrame
	}
	rate := math.Float64frombits(binary.BigEndian.Uint64(p[4:12]))
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		return SetupReq{}, fmt.Errorf("%w: non-finite or negative setup rate", switchfab.ErrInvalidRate)
	}
	return SetupReq{
		VCI:  binary.BigEndian.Uint16(p[0:2]),
		Port: binary.BigEndian.Uint16(p[2:4]),
		Rate: rate,
	}, nil
}

// AppendTeardown appends a teardown request for a VCI to dst.
func AppendTeardown(dst []byte, reqID uint32, vci uint16) []byte {
	dst = appendHeader(dst, TypeTeardown, reqID)
	var p [2]byte
	binary.BigEndian.PutUint16(p[:], vci)
	return append(dst, p[:]...)
}

// DecodeTeardown parses a teardown payload.
func DecodeTeardown(p []byte) (uint16, error) {
	if len(p) < 2 {
		return 0, ErrFrame
	}
	return binary.BigEndian.Uint16(p[0:2]), nil
}

// AppendOK appends a success reply of the given type (TypeSetupOK or
// TypeTeardownOK) to dst.
func AppendOK(dst []byte, typ uint8, reqID uint32) []byte {
	return appendHeader(dst, typ, reqID)
}

// Error codes carried in the first byte of an Err payload. They mirror the
// switch's sentinel errors so a remote failure keeps its identity across
// the wire.
const (
	ErrCodeGeneric uint8 = iota
	ErrCodeCapacity
	ErrCodeAdmission
	ErrCodeNoVC
	ErrCodeNoPort
	ErrCodeVCExists
	ErrCodeInvalidRate
	ErrCodeProto
	ErrCodePortExists
	ErrCodeVersion
)

// wireSentinels pairs each non-generic code with its sentinel; the table
// drives both directions of the mapping.
var wireSentinels = map[uint8]error{
	ErrCodeCapacity:    switchfab.ErrCapacity,
	ErrCodeAdmission:   switchfab.ErrAdmission,
	ErrCodeNoVC:        switchfab.ErrNoVC,
	ErrCodeNoPort:      switchfab.ErrNoPort,
	ErrCodeVCExists:    switchfab.ErrVCExists,
	ErrCodeInvalidRate: switchfab.ErrInvalidRate,
	ErrCodeProto:       ErrFrame,
	ErrCodePortExists:  switchfab.ErrPortExists,
	ErrCodeVersion:     ErrVersion,
}

// errCode maps an error onto its wire code (ErrCodeGeneric when no sentinel
// matches).
func errCode(err error) uint8 {
	for code, sentinel := range wireSentinels {
		if errors.Is(err, sentinel) {
			return code
		}
	}
	return ErrCodeGeneric
}

// codeSentinel maps a wire code back to its sentinel, or nil for
// ErrCodeGeneric and unknown codes.
func codeSentinel(code uint8) error { return wireSentinels[code] }

// AppendErr appends an error reply carrying an error code and a message
// string to dst.
func AppendErr(dst []byte, reqID uint32, code uint8, msg string) []byte {
	if len(msg) > maxFrame-headerLen-1 {
		msg = msg[:maxFrame-headerLen-1]
	}
	dst = appendHeader(dst, TypeErr, reqID)
	dst = append(dst, code)
	return append(dst, msg...)
}

// DecodeErr splits an Err payload into its code and message. An empty
// payload decodes as a generic error.
func DecodeErr(p []byte) (code uint8, msg string) {
	if len(p) == 0 {
		return ErrCodeGeneric, ""
	}
	return p[0], string(p[1:])
}

// appendRMCell appends one 53-byte RM cell to dst.
func appendRMCell(dst []byte, h cell.Header, m cell.RM) ([]byte, error) {
	raw, err := cell.Build(h, m)
	if err != nil {
		return dst, err
	}
	return append(dst, raw[:]...), nil
}

// AppendRM appends a renegotiation datagram wrapping a full RM cell — the RM
// frame of one — to dst; on error dst comes back as it was given.
func AppendRM(dst []byte, reqID uint32, h cell.Header, m cell.RM) ([]byte, error) {
	out, err := appendRMCell(appendHeader(dst, TypeRM, reqID), h, m)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// rmCells returns the number of cells k in an RM payload. The framing is
// strict — k whole cells, 1 <= k <= MaxRMBatch, nothing before, between or
// after them — and so is cell.Parse, so every accepted payload re-encodes to
// the bytes that arrived. An accepted payload is walked cell.Size bytes at a
// time.
func rmCells(p []byte) (int, error) {
	k := len(p) / cell.Size
	if k == 0 || k > MaxRMBatch || len(p) != k*cell.Size {
		return 0, fmt.Errorf("%w: RM payload of %d bytes", ErrFrame, len(p))
	}
	return k, nil
}

// DecodeRM parses the payload of a one-cell RM frame back into header and
// message.
func DecodeRM(p []byte) (cell.Header, cell.RM, error) {
	if len(p) != cell.Size {
		return cell.Header{}, cell.RM{}, ErrFrame
	}
	return cell.Parse(p)
}
