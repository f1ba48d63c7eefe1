package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// WriteText serializes the trace as text: a header line "# fps <rate>"
// followed by one decimal frame size (bits) per line. This is the format of
// the public video-trace archives the paper drew on.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# fps %g\n", t.FPS); err != nil {
		return err
	}
	for _, b := range t.FrameBits {
		if _, err := fmt.Fprintln(bw, b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Lines starting with '#' are comments; a
// comment of the form "# fps <rate>" sets the frame rate (default 24).
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	fps := 24.0
	var frames []int64
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "#") {
			fields := strings.Fields(strings.TrimPrefix(s, "#"))
			if len(fields) == 2 && fields[0] == "fps" {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err != nil || !(v > 0) || math.IsInf(v, 1) {
					return nil, fmt.Errorf("trace: line %d: bad fps %q", line, fields[1])
				}
				fps = v
			}
			continue
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("trace: line %d: negative frame size %d", line, v)
		}
		frames = append(frames, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(frames, fps), nil
}

// Load reads a text trace from path.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadText(f)
}

// Save writes the trace to path in the text format.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteText(f); err != nil {
		return err
	}
	return f.Close()
}
