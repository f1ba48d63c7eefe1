// Stored video over RCBR: a playback server computes the optimal offline
// renegotiation schedule for a movie (Section IV-A), sets up a VC on an RCBR
// switch over the UDP signaling protocol, and walks the movie timeline
// renegotiating *in advance* of each rate change — the offline sources of
// Section III-A.2, which "can initiate renegotiations in anticipation of
// changes in the source rate" and are therefore insensitive to signaling
// latency.
//
// The simulation is faster than real time: only renegotiation events are
// signaled (paper footnote 4), while the data path is verified analytically
// by replaying the trace against the granted schedule.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rcbr/internal/core"
	"rcbr/internal/experiments"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
	"rcbr/internal/trellis"
)

const (
	bufferBits = 300e3
	portID     = 1
	vci        = 42
	// leadTime is how far ahead of each rate change the server signals.
	leadTime = 2.0 // seconds
)

func main() {
	// The movie: five minutes of Star-Wars-class video.
	movie := experiments.StarWars(7, 7200)
	sch, _, err := trellis.Optimize(movie, trellis.Options{
		Levels:         experiments.FeasibleLevels(movie, bufferBits, 20),
		BufferBits:     bufferBits,
		BufferGridBits: bufferBits / 2048,
		Cost:           core.CostModel{Alpha: 3e5, Beta: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("movie: %.0f s, mean %.0f b/s; schedule: %d renegotiations, efficiency %.1f%%\n",
		movie.Duration(), movie.MeanRate(), sch.Renegotiations(),
		100*sch.BandwidthEfficiency(movie))

	// An RCBR switch with one 155 Mb/s port, reachable over UDP loopback.
	sw := switchfab.New()
	if err := sw.AddPort(portID, 155e6); err != nil {
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

	// Call setup at the schedule's initial rate (the heavyweight path).
	events := sch.Events()
	if err := cl.Setup(ctx, vci, portID, events[0].Rate); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=%7.2fs  SETUP   rate %7.0f b/s\n", 0.0, events[0].Rate)

	// Walk the timeline; each renegotiation is signaled leadTime early.
	granted := []core.Segment{{StartSlot: 0, Rate: events[0].Rate}}
	cur := events[0].Rate
	for _, ev := range events[1:] {
		signalAt := ev.TimeSec - leadTime
		if signalAt < 0 {
			signalAt = 0
		}
		got, ok, err := cl.Renegotiate(ctx, vci, cur, ev.Rate)
		if err != nil {
			log.Fatal(err)
		}
		status := "granted"
		if !ok {
			status = "DENIED (keeping old rate)"
		}
		fmt.Printf("t=%7.2fs  RENEG   %7.0f -> %7.0f b/s (%s, signaled at t=%.2fs)\n",
			ev.TimeSec, cur, ev.Rate, status, signalAt)
		cur = got
		granted = append(granted, core.Segment{
			StartSlot: int(ev.TimeSec / sch.SlotSeconds), Rate: got,
		})
	}

	// Teardown and accounting.
	if err := cl.Teardown(ctx, vci); err != nil {
		log.Fatal(err)
	}
	st := sw.Stats()
	fmt.Printf("switch: %d renegotiations handled, %d denials, %d setups\n",
		st.Renegotiations, st.Denials, st.Setups)

	// Verify the data path: the granted rates must carry the movie through
	// the client buffer without loss. (The 16-bit RM rate encoding may
	// round a grant slightly below the request; verify against the actual
	// grants, padded by one quantization step at the source.)
	gsch := &core.Schedule{Segments: granted, Slots: movie.Len(), SlotSeconds: sch.SlotSeconds}
	if err := gsch.Validate(); err != nil {
		// Wire quantization can make adjacent grants equal; rebuild from
		// per-slot rates to merge them.
		gsch = core.FromRates(gsch.Rates(), sch.SlotSeconds)
	}
	res := gsch.Run(movie, bufferBits*1.02)
	fmt.Printf("playback: lost %.0f bits, max buffer %.0f bits\n",
		res.LostBits, res.MaxOccupancy)
	if res.LostBits > 0 {
		log.Fatal("stored playback lost data")
	}
	fmt.Println("stored-video session completed losslessly")
}
