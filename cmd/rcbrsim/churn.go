package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"rcbr/internal/churn"
	"rcbr/internal/switchfab"
)

// churnRun drives the call-scale churn generator (internal/churn) against a
// live switch: ramp to a target concurrent-VC population under the
// chosen admission policy, then hold it in setup/teardown/renegotiation
// equilibrium for a budget of call events, reporting the operation counts,
// each phase's wall time and retained bytes per VC.
func churnRun(fs *flag.FlagSet) func(context.Context) error {
	vcs := fs.Int("vcs", 1_000_000, "target concurrent VC population")
	ports := fs.Int("ports", 256, "output ports on the switch")
	portCap := fs.Float64("portcap", 1.5e9, "per-port capacity (bits/s)")
	workers := fs.Int("workers", 0, "generator goroutines (0 = GOMAXPROCS)")
	events := fs.Int("churn", 2_000_000, "churn-phase call-event budget")
	target := fs.Float64("target", 1e-3, "memory admitter's failure target in (0, 1); 0 runs no admission control beyond capacity")
	drain := fs.Bool("drain", false, "tear every call down at the end and verify the fabric drains to zero: no VC and no reservation left")
	jsonOut := fs.String("json", "", "also write the result as JSON to this file (- for stdout)")
	seed := fs.Uint64("seed", 1, "generator seed")
	return func(context.Context) error {
		switch {
		case *vcs <= 0:
			return fmt.Errorf("-vcs must be positive, got %d", *vcs)
		case *ports <= 0 || *ports > 1<<16:
			return fmt.Errorf("-ports must be in [1, %d], got %d", 1<<16, *ports)
		case *events < 0:
			return fmt.Errorf("-churn must not be negative, got %d", *events)
		case *target != 0 && !(*target > 0 && *target < 1):
			return fmt.Errorf("-target must be 0 (no admission control) or in (0, 1), got %g", *target)
		}
		// A throwaway port books the capacity as the run's switch will: the
		// range of rates a port can hold is switchfab's to know.
		if err := switchfab.New().AddPort(0, *portCap); err != nil {
			return fmt.Errorf("-portcap must be a rate a switch port can hold: %w", err)
		}
		w := *workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("churn: target %d VCs over %d ports (%.3g b/s each), %d workers, admission target %g\n",
			*vcs, *ports, *portCap, w, *target)

		res, err := churn.Run(churn.Config{
			Ports:        *ports,
			PortCapacity: *portCap,
			Target:       *target,
			TargetVCs:    *vcs,
			Workers:      *workers,
			ChurnEvents:  *events,
			Seed:         *seed,
			Drain:        *drain,
		})
		if err != nil {
			return err
		}

		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "ramped VCs\t%d (of %d)\tin %v\n", res.RampedVCs, *vcs, res.RampWall.Round(1e6))
		fmt.Fprintf(tw, "churn events\t%d setups, %d teardowns, %d renegs (%d denied)\tin %v\n",
			res.Setups, res.Teardowns, res.Renegs, res.RenegDenials, res.ChurnWall.Round(1e6))
		fmt.Fprintf(tw, "blocked setups\t%d\n", res.Blocked)
		fmt.Fprintf(tw, "final VCs\t%d\n", res.FinalVCs)
		fmt.Fprintf(tw, "bytes per VC\t%.0f\n", res.BytesPerVC)
		if err := tw.Flush(); err != nil {
			return err
		}
		if *drain {
			fmt.Println("drain: fabric empty")
		}

		if *jsonOut != "" {
			buf, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			buf = append(buf, '\n')
			if *jsonOut == "-" {
				_, err = os.Stdout.Write(buf)
			} else {
				err = os.WriteFile(*jsonOut, buf, 0o644)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}
