// Interactive video over RCBR: an online source that cannot know its future
// rate runs the causal AR(1) heuristic of Section IV-B, renegotiating
// through a real switch over the UDP signaling protocol. A competing
// background reservation squeezes the link mid-session, so some upward
// renegotiations are denied and the source must settle for the bandwidth it
// already holds (Section III-A.1) — absorbing the shortfall in its buffer.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rcbr/internal/core"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

const (
	portID       = 1
	vci          = 100
	backgroundVC = 200
	bufferBits   = 600e3
	granularity  = 100e3
	linkCapacity = 2.6e6 // deliberately tight
	background   = 1.2e6 // competing CBR reservation mid-session
)

func main() {
	// A two-minute interactive session (e.g. a video call).
	src := experiments.StarWars(3, 2880)
	fmt.Printf("source: %.0f s live video, mean %.0f b/s\n",
		src.Duration(), src.MeanRate())

	// Switch + signaling plane.
	sw := switchfab.New()
	if err := sw.AddPort(portID, linkCapacity); err != nil {
		log.Fatal(err)
	}
	srv, err := netproto.NewServer("127.0.0.1:0", sw)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck // exits via Close

	ctx := context.Background()
	cl, err := netproto.DialContext(ctx, srv.Addr().String(),
		netproto.WithTimeout(300*time.Millisecond), netproto.WithRetries(3))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Call setup at one granularity step.
	if err := cl.Setup(ctx, vci, portID, granularity); err != nil {
		log.Fatal(err)
	}
	// A competing CBR call holds most of the link for the middle third of
	// the session.
	third := src.Len() / 3

	// The online controller drives a Source through the heuristic, with
	// the network represented by the signaling client.
	params := heuristic.DefaultParams(granularity)
	params.InitialRate = granularity
	params.MaxRate = linkCapacity
	params.GrantTolerance = 1.0 / 128 // 16-bit RM rate quantization
	buf := core.NewSource(bufferBits, src.SlotSeconds(), granularity)
	negotiate := heuristic.NegotiatorFunc(func(current, requested float64) float64 {
		granted, _, err := cl.Renegotiate(ctx, vci, current, requested)
		if err != nil {
			log.Fatal(err)
		}
		return granted
	})
	ctl, err := heuristic.NewController(buf, params, negotiate)
	if err != nil {
		log.Fatal(err)
	}

	// Codec adaptation (Section III-A.1, third option): when renegotiation
	// fails, the application requantizes to a lower quality — frame sizes
	// scale down — and quality recovers gradually once the network grants
	// again. "Recent work suggests that even stored video can be
	// dynamically requantized in order to respond to these signals."
	quality := 1.0
	minQuality := 1.0
	var degradedSlots int

	var attempts, failures int
	var maxOcc float64
	for t := 0; t < src.Len(); t++ {
		switch t {
		case third:
			if err := cl.Setup(ctx, backgroundVC, portID, background); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("t=%6.1fs  background call takes %.1f Mb/s: link squeezed\n",
				float64(t)*src.SlotSeconds(), background/1e6)
		case 2 * third:
			if err := cl.Teardown(ctx, backgroundVC); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("t=%6.1fs  background call departs: link relaxed\n",
				float64(t)*src.SlotSeconds())
		}
		_, attempted, failed := ctl.Step(float64(src.FrameBits[t]) * quality)
		if attempted {
			attempts++
		}
		if failed {
			failures++
			// The control loop between network interface and codec is
			// tight (a few ms, says the paper): degrade promptly.
			quality *= 0.90
			if quality < 0.25 {
				quality = 0.25
			}
		} else if quality < 1 {
			quality = min(1, quality*1.01)
		}
		if quality < 0.999 {
			degradedSlots++
		}
		if quality < minQuality {
			minQuality = quality
		}
		if buf.Occupancy() > maxOcc {
			maxOcc = buf.Occupancy()
		}
	}
	if err := cl.Teardown(ctx, vci); err != nil {
		log.Fatal(err)
	}

	st := sw.Stats()
	fmt.Printf("session: %d renegotiation attempts, %d failed (switch denials: %d)\n",
		attempts, failures, st.Denials)
	fmt.Printf("buffer:  max occupancy %.0f of %.0f bits, lost %.0f bits (%.2e of offered)\n",
		maxOcc, bufferBits, buf.LostBits(), buf.LossFraction())
	fmt.Printf("granted schedule: %d rate changes applied\n", buf.Renegotiations())
	fmt.Printf("codec:   quality degraded for %.1f s of %.0f s (worst quality %.0f%%)\n",
		float64(degradedSlots)*src.SlotSeconds(), src.Duration(), 100*minQuality)
	if failures == 0 {
		fmt.Println("note: no denials this run — lower linkCapacity to see failure handling")
	} else {
		fmt.Println("denials were absorbed by buffer and codec adaptation, as the paper prescribes")
	}
}
