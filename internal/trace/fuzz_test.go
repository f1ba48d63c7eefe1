package trace

import (
	"math"
	"strings"
	"testing"
)

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
