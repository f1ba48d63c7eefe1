package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadBinary must never panic on arbitrary input, and anything accepted
// must survive a write/read round trip.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := New([]int64{100, 200, 300}, 24).WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("RCBT"))
	f.Add([]byte{})
	// A header claiming 3.4e9 frames with four bytes behind it.
	f.Add([]byte("RCBT\x00\x01\x00\x00]\xc0\x00\x00\x00\x00\xc8\x01\xac\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.WriteBinary(&out); err != nil {
			t.Fatalf("accepted trace fails to write: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("round trip read: %v", err)
		}
		if back.Len() != tr.Len() || back.FPS != tr.FPS {
			t.Fatalf("round trip mismatch: %d/%v vs %d/%v",
				back.Len(), back.FPS, tr.Len(), tr.FPS)
		}
	})
}

// FuzzReadText must never panic; accepted traces must have non-negative
// frames and a finite, positive fps.
func FuzzReadText(f *testing.F) {
	f.Add("# fps 24\n100\n200\n")
	f.Add("")
	f.Add("-1\n")
	f.Add("# fps -3\n1\n")
	f.Add("# fps NaN\n1\n")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ReadText(strings.NewReader(s))
		if err != nil {
			return
		}
		if !(tr.FPS > 0) || math.IsInf(tr.FPS, 1) {
			t.Fatalf("accepted fps %v", tr.FPS)
		}
		for i, b := range tr.FrameBits {
			if b < 0 {
				t.Fatalf("accepted negative frame %d at %d", b, i)
			}
		}
	})
}
