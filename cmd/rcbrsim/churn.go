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
	admit := fs.String("admit", "memory", "admission policy: memory | none")
	target := fs.Float64("target", 1e-3, "memory admitter failure target")
	drain := fs.Bool("drain", false, "tear every call down at the end and verify the fabric drains to zero: no VC and no reservation left")
	jsonOut := fs.String("json", "", "also write the result as JSON to this file (- for stdout)")
	seed := fs.Uint64("seed", 1, "generator seed")
	return func(context.Context) error {
		classes := churn.DefaultClasses()
		var opts []switchfab.Option
		switch *admit {
		case "memory":
			ad, err := switchfab.NewMemoryAdmitter(churn.LevelSet(classes), *target)
			if err != nil {
				return err
			}
			opts = append(opts, switchfab.WithAdmitter(ad))
		case "none":
		default:
			return fmt.Errorf("unknown admission policy %q (memory | none)", *admit)
		}
		sw := switchfab.New(opts...)
		for p := 0; p < *ports; p++ {
			if err := sw.AddPort(p, *portCap); err != nil {
				return err
			}
		}

		w := *workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("churn: target %d VCs over %d ports (%.3g b/s each), %d workers, admit=%s\n",
			*vcs, *ports, *portCap, w, *admit)

		res, err := churn.Run(churn.Config{
			Switch:      sw,
			Ports:       *ports,
			Classes:     classes,
			TargetVCs:   *vcs,
			Workers:     *workers,
			ChurnEvents: *events,
			Seed:        *seed,
			Drain:       *drain,
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
		st := sw.Stats()
		fmt.Printf("switch: %d setups, %d setup rejects\n", st.Setups, st.SetupRejects)
		if *drain {
			if n := sw.VCCount(); n != 0 {
				return fmt.Errorf("drain left %d VCs in the fabric", n)
			}
			for p := 0; p < *ports; p++ {
				if reserved, _, _ := sw.PortLoad(p); reserved != 0 {
					return fmt.Errorf("drain left %g b/s reserved on port %d", reserved, p)
				}
			}
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
