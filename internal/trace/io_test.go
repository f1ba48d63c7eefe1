package trace

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"rcbr/internal/stats"
)

func TestTextRoundTrip(t *testing.T) {
	tr := New([]int64{10, 20, 30}, 25)
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FPS != 25 || got.Len() != 3 || got.FrameBits[2] != 30 {
		t.Fatalf("got %+v", got)
	}
}

func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8, fpsTenth uint8) bool {
		// Widen before adding: in uint8 arithmetic 246%250+10 wraps to 0,
		// which New rejects by panicking on non-positive fps.
		fps := float64(int(fpsTenth)%250+10) / 10
		r := stats.NewRNG(seed)
		bits := make([]int64, n)
		for i := range bits {
			bits[i] = int64(r.Intn(1 << 20))
		}
		tr := New(bits, fps)
		var buf bytes.Buffer
		if err := tr.WriteText(&buf); err != nil {
			return false
		}
		got, err := ReadText(&buf)
		if err != nil {
			return false
		}
		if got.FPS != fps || got.Len() != tr.Len() {
			return false
		}
		for i := range bits {
			if got.FrameBits[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTextParsing(t *testing.T) {
	in := "# a comment\n# fps 30\n\n100\n 200 \n300\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.FPS != 30 || got.Len() != 3 {
		t.Fatalf("got fps %v len %d", got.FPS, got.Len())
	}
}

func TestTextDefaultsFPS(t *testing.T) {
	got, err := ReadText(strings.NewReader("1\n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.FPS != 24 {
		t.Fatalf("default fps = %v, want 24", got.FPS)
	}
}

func TestTextErrors(t *testing.T) {
	for name, in := range map[string]string{
		"garbage":  "abc\n",
		"negative": "-5\n",
		"bad fps":  "# fps zero\n1\n",
	} {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	tr := SyntheticStarWarsFrames(2, 200)
	path := filepath.Join(t.TempDir(), "t.txt")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.FPS != tr.FPS {
		t.Fatalf("load len = %d fps = %v", got.Len(), got.FPS)
	}
	for i := range tr.FrameBits {
		if got.FrameBits[i] != tr.FrameBits[i] {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("no error for missing file")
	}
}
