package cell

// Byte-at-a-time lookup tables for the two cell CRCs. The bit-serial
// definitions (see hecRef/crc10Ref in the tests) cost 8 branches per byte;
// the data path verifies a HEC on every forwarded cell, so both CRCs run
// from 256-entry tables built once at init. Equivalence with the bit-serial
// forms is pinned by TestCRCTablesMatchBitSerial.

// crc8Table[i] is the CRC-8 (poly x^8+x^2+x+1, 0x07) of the single byte i.
var crc8Table = func() (t [256]byte) {
	for i := range t {
		crc := byte(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// crc10Table[i] is the 10-bit CRC (poly 0x633) of byte i aligned to the top
// of the register, i.e. the register i<<2 advanced eight steps.
var crc10Table = func() (t [256]uint16) {
	const poly = 0x633
	for i := range t {
		r := uint16(i) << 2
		for b := 0; b < 8; b++ {
			if r&0x200 != 0 {
				r = r<<1 ^ poly
			} else {
				r <<= 1
			}
			r &= 0x3FF
		}
		t[i] = r
	}
	return t
}()

// hecTable[k][x] is the CRC-8 of byte x followed by k zero bytes:
// hecTable[0] is crc8Table, and each further zero byte is one more trip
// through it. The CRC (zero initial register) is linear over XOR, so a
// header's CRC is the XOR of its bytes' separate contributions — four
// lookups none of which waits for another, where the byte-serial loop is a
// chain of four dependent ones.
var hecTable = func() (t [4][256]byte) {
	t[0] = crc8Table
	for k := 1; k < len(t); k++ {
		for x := range t[k] {
			t[k][x] = crc8Table[t[k-1][x]]
		}
	}
	return t
}()

// hec computes the ATM header error control byte: CRC-8 with polynomial
// x^8+x^2+x+1 over the four header bytes b[0..3], XORed with 0x55 (I.432),
// by the sliced table above. Marshal writes it and every receive-side check
// compares with it; it stays small enough to inline into the forwarder
// through VCID (TestRingFastPathInlined).
func hec(b []byte) byte {
	return hecTable[3][b[0]] ^ hecTable[2][b[1]] ^ hecTable[1][b[2]] ^ hecTable[0][b[3]] ^ 0x55
}

// crc10 computes the ATM CRC-10 (generator x^10+x^9+x^5+x^4+x+1, i.e.
// 0x633) over the buffer, returning the 10-bit remainder.
//
// Per byte: the register's top eight bits combine with the input byte
// through the table; its low two bits shift up eight places unreduced
// (they stay below bit 10), which is exactly (crc<<8)&0x3FF.
func crc10(b []byte) uint16 {
	var crc uint16
	for _, x := range b {
		crc = (crc<<8)&0x3FF ^ crc10Table[byte(crc>>2)^x]
	}
	return crc
}
