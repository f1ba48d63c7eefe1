package main

import (
	"context"
	"flag"
	"os"

	"rcbr/internal/live"
)

// liveRun is the table entry of signal, topology and datapath: one flag set
// over live.Config, its defaults the preset's.
func liveRun(p live.Preset) func(*flag.FlagSet) func(context.Context) error {
	return func(fs *flag.FlagSet) func(context.Context) error {
		c := p.Defaults
		fs.IntVar(&c.Frames, "frames", c.Frames, "trace length in frames (signal, topology 1..28800; datapath 1..14400)")
		fs.Uint64Var(&c.Seed, "seed", c.Seed, "trace generator seed")
		fs.IntVar(&c.Sources, "n", c.Sources, "number of heuristic sources")
		fs.IntVar(&c.Hops, "hops", c.Hops, "switches on the chain")
		fs.Float64Var(&c.Buffer, "buffer", c.Buffer, "per-source buffer (bits)")
		fs.Float64Var(&c.Delta, "delta", c.Delta, "heuristic granularity (bits/s)")
		fs.Float64Var(&c.CapFrac, "capfrac", c.CapFrac, "last link's capacity as a multiple of aggregate mean rate")
		fs.Float64Var(&c.Backbone, "backbone", c.Backbone, "every other link's capacity as a multiple of the last link's (>= 1)")
		fs.DurationVar(&c.HopDelay, "hopdelay", c.HopDelay, "one-way delay of every link (1ms terrestrial, 275ms geostationary)")
		fs.StringVar(&c.CSV, "csv", c.CSV, "per-second time-series CSV (- for stdout, empty for none)")
		fs.StringVar(&c.JSON, "json", c.JSON, "dump metrics + event trace as JSON to this file (- for stdout)")
		return func(ctx context.Context) error {
			if c.CSV == "-" || c.JSON == "-" {
				return live.Run(ctx, p, c, os.Stderr) // keep the data on stdout machine-parseable
			}
			return live.Run(ctx, p, c, os.Stdout)
		}
	}
}
