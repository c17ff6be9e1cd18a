// Command montecarlo estimates dependability "nines" for the paper's
// case-study designs by seeded Monte Carlo (internal/mc), printed next
// to the analytic worst-case bounds the framework computes for the same
// designs — the two views the paper keeps separate: what the imposed
// disaster costs at worst, and how often the sampled world actually
// gets there.
//
// Usage:
//
//	montecarlo                      # all case-study designs, 1000 trials
//	montecarlo -design Baseline     # one design
//	montecarlo -trials 10000        # tighter confidence intervals
//	montecarlo -seed 7 -workers 4   # any worker count: identical output
//	montecarlo -mission 2yr         # longer mission window per trial
//	montecarlo -wrong-recovery 2 -silent-nonwrite 2 -common-outage 1
//	                                # sample operator faults / correlated
//	                                # outages at annual rates
//
// Every campaign is deterministic in (seed, trials, mission): per-trial
// sub-seeds derive from the seed alone, so worker counts and trial
// sharding (internal/dist's Coordinator.Run) reproduce the output
// byte-for-byte.
// Each sampled trial is also checked against the analytic worst-case
// loss bound for its sampled fault scenario; the report's "violations"
// counter is the cross-model invariant and must read zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/failure"
	"stordep/internal/mc"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

type options struct {
	design  string
	trials  int
	seed    int64
	workers int
	mission string
	op      mc.OpRates
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("montecarlo: ")

	var o options
	flag.StringVar(&o.design, "design", "", "run only the named case-study design (default: all)")
	flag.IntVar(&o.trials, "trials", 1000, "Monte Carlo trials per design")
	flag.Int64Var(&o.seed, "seed", 1, "campaign seed; output is a pure function of (seed, trials, mission)")
	flag.IntVar(&o.workers, "workers", 0, "trial workers (0 = all CPUs); any count gives identical output")
	flag.StringVar(&o.mission, "mission", "", "mission window per trial (e.g. 26wk, 2yr; default 1yr)")
	flag.Float64Var(&o.op.WrongRecovery, "wrong-recovery", 0, "annual rate of wrong-recovery operator faults (0 = off)")
	flag.Float64Var(&o.op.SilentNonWrite, "silent-nonwrite", 0, "annual rate of silent non-write windows (0 = off)")
	flag.Float64Var(&o.op.CommonOutage, "common-outage", 0, "annual rate of correlated all-level outages (0 = off)")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, o options) error {
	designs := casestudy.WhatIfDesigns()
	if o.design != "" {
		kept := designs[:0]
		for _, d := range designs {
			if d.Name == o.design {
				kept = append(kept, d)
			}
		}
		if len(kept) == 0 {
			names := make([]string, len(designs))
			for i, d := range designs {
				names[i] = d.Name
			}
			return fmt.Errorf("unknown design %q; case-study designs: %v", o.design, names)
		}
		designs = kept
	}
	var mission time.Duration
	if o.mission != "" {
		d, err := units.ParseDuration(o.mission)
		if err != nil {
			return fmt.Errorf("bad -mission: %w", err)
		}
		if d <= 0 {
			return fmt.Errorf("bad -mission %s: must be positive", o.mission)
		}
		mission = d
	}
	scenarios := []failure.Scenario{
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeSite},
	}

	for i, d := range designs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		camp := &mc.Campaign{
			Design:  d,
			Seed:    o.seed,
			Trials:  o.trials,
			Workers: o.workers,
			Mission: mission,
			Op:      o.op,
		}
		rep, err := camp.Run()
		if err != nil {
			return err
		}
		fmt.Fprint(w, rep.String())

		// The analytic side of the ledger: worst-case recovery time and
		// data loss for each imposed scenario — the bounds every sampled
		// trial above was checked against.
		res := whatif.EvaluateOne(d, scenarios)
		if res.Err != nil {
			return fmt.Errorf("design %s: %w", d.Name, res.Err)
		}
		fmt.Fprintf(w, "  analytic worst case per imposed scenario:\n")
		for _, oc := range res.Outcomes {
			fmt.Fprintf(w, "    %-6s RT %-10v DL %-10v total %v\n",
				oc.Scenario.DisplayName(), oc.RecoveryTime.Round(time.Minute),
				oc.DataLoss.Round(time.Minute), oc.Total)
		}
		if rep.BoundViolations > 0 {
			return fmt.Errorf("design %s: %d sampled trials exceeded their analytic bound — cross-model invariant broken",
				d.Name, rep.BoundViolations)
		}
	}
	return nil
}
