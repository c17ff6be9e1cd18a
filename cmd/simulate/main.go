// Command simulate cross-validates a design's analytic worst-case bounds
// against the discrete-event retrieval-point simulator: it replays the
// design's RP propagation, injects failures at every sampling instant,
// and compares the measured data-loss distribution with the closed-form
// prediction.
//
// Usage:
//
//	stordep -export Baseline > baseline.json
//	simulate -design baseline.json -scope array
//	simulate -design baseline.json -scope site -weeks 40 -step 30m
//	simulate -design baseline.json -scope array -outage backup=1wk
//	simulate -design baseline.json -scope array -outage backup=1wk,vault=2d
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"stordep/internal/config"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/sim"
	"stordep/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simulate: ")

	var (
		designPath = flag.String("design", "", "design JSON file (required)")
		scope      = flag.String("scope", "array", "failure scope (object|array|building|site|region)")
		target     = flag.String("target", "0h", "recovery target age")
		weeks      = flag.Int("weeks", 30, "simulation horizon in weeks")
		step       = flag.String("step", "1h", "failure sampling step")
		outage     = flag.String("outage", "", "degrade levels before sampling, comma-separated, e.g. backup=1wk or backup=1wk,vault=2d")
		rt         = flag.Bool("rt", false, "also study restore volumes/times per failure instant")
	)
	flag.Parse()

	if err := run(os.Stdout, *designPath, *scope, *target, *weeks, *step, *outage, *rt); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, designPath, scope, target string, weeks int, step, outage string, rt bool) error {
	if designPath == "" {
		return fmt.Errorf("-design is required")
	}
	design, err := config.Load(designPath)
	if err != nil {
		return err
	}
	sys, err := core.Build(design)
	if err != nil {
		return err
	}

	sc, err := parseScenario(scope, target)
	if err != nil {
		return err
	}
	surviving := sys.SurvivingLevels(nil, sc)
	if len(surviving) == 0 {
		fmt.Fprintf(w, "No protection level survives a %s failure: the object is lost.\n", sc.Scope)
		return nil
	}

	chain := sys.Chain()
	simulator, err := sim.New(chain)
	if err != nil {
		return err
	}

	if weeks <= 0 {
		return fmt.Errorf("-weeks must be positive, got %d", weeks)
	}
	horizon := time.Duration(weeks) * units.Week
	stepDur, err := units.ParseDuration(step)
	if err != nil {
		return fmt.Errorf("bad -step: %w", err)
	}
	if stepDur <= 0 {
		return fmt.Errorf("-step must be positive, got %s", step)
	}

	// Analytic bound: the loss at the level source selection would pick,
	// shifted if outages are requested. Several comma-separated outages
	// degrade their levels simultaneously: all end two thirds into the
	// horizon, so sampling begins right after them, when exposure peaks.
	outages, err := parseOutages(chain, outage)
	if err != nil {
		return err
	}
	from := horizon * 2 / 3
	outs := make([]sim.Outage, len(outages))
	for i, o := range outages {
		outs[i] = sim.Outage{Level: o.Level, From: from - o.Outage, To: from}
	}
	hist, err := simulator.Run(nil, outs, nil, 0, horizon)
	if err != nil {
		return err
	}
	analytic := time.Duration(-1)
	for _, j := range surviving {
		var loss time.Duration
		var ok bool
		if len(outages) > 0 {
			loss, ok = chain.CompoundDegradedLoss(j, outages, sc.TargetAge)
		} else {
			loss, ok = chain.WorstCaseLoss(j, sc.TargetAge)
		}
		if ok && (analytic < 0 || loss < analytic) {
			analytic = loss
		}
	}

	fmt.Fprintf(w, "Simulating %d weeks of RP propagation for %q (%s)\n",
		weeks, design.Name, chain)

	to := horizon - units.Week
	st, err := hist.LossStudy(surviving, sc.TargetAge, from, to, stepDur)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s failure, target now-%s, %d instants sampled every %s:\n",
		sc.Scope, units.FormatDuration(sc.TargetAge), st.Samples, units.FormatDuration(stepDur))
	fmt.Fprintf(w, "  analytic worst-case loss: %.1f hr\n", analytic.Hours())
	fmt.Fprintf(w, "  simulated max loss:       %.1f hr\n", st.Max.Hours())
	fmt.Fprintf(w, "  simulated mean loss:      %.1f hr\n", st.Mean.Hours())
	if st.Unrecoverable > 0 {
		fmt.Fprintf(w, "  unrecoverable instants:   %d\n", st.Unrecoverable)
	}
	switch {
	case st.Max > analytic:
		fmt.Fprintf(w, "  VERDICT: BOUND VIOLATED by %.1f hr\n", (st.Max - analytic).Hours())
	case float64(st.Max) >= 0.9*float64(analytic):
		fmt.Fprintf(w, "  VERDICT: bound holds and is tight (%.0f%% reached)\n",
			100*float64(st.Max)/float64(analytic))
	default:
		fmt.Fprintf(w, "  VERDICT: bound holds with slack (%.0f%% reached)\n",
			100*float64(st.Max)/float64(analytic))
	}

	if rt {
		// Restore-volume distribution at the analytic plan's effective
		// transfer rate and fixed overhead.
		a, err := sys.Assess(sc)
		if err != nil {
			return err
		}
		if a.WholeObjectLost || len(a.Plan.Steps) == 0 {
			fmt.Fprintln(w, "\nNo recovery plan to study restore volumes against.")
			return nil
		}
		xfer := a.Plan.Steps[len(a.Plan.Steps)-1]
		fixed := a.RecoveryTime - units.Div(xfer.Size, xfer.Bandwidth)
		rs, err := hist.RTStudy(design.Workload, surviving, sc.TargetAge,
			from, to, stepDur, xfer.Bandwidth, fixed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nRestore volumes at %v effective bandwidth (+%s fixed):\n",
			xfer.Bandwidth, units.FormatDuration(fixed.Round(time.Second)))
		fmt.Fprintf(w, "  min %v  mean %v  max %v\n", rs.MinVolume, rs.MeanVolume, rs.MaxVolume)
		fmt.Fprintf(w, "  mean restore %s, worst restore %s (analytic worst %.4g hr)\n",
			units.FormatDuration(rs.MeanTime.Round(time.Minute)),
			units.FormatDuration(rs.MaxTime.Round(time.Minute)),
			a.RecoveryTime.Hours())
	}
	return nil
}

// parseOutages parses a comma-separated list of level=duration pairs
// against the chain's level names.
func parseOutages(chain hierarchy.Chain, spec string) ([]hierarchy.LevelOutage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []hierarchy.LevelOutage
	for _, part := range strings.Split(spec, ",") {
		name, durStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -outage %q, want level=duration", part)
		}
		level := chain.Index(name)
		if level == 0 {
			return nil, fmt.Errorf("unknown level %q", name)
		}
		dur, err := units.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("bad -outage duration: %w", err)
		}
		if dur <= 0 {
			return nil, fmt.Errorf("-outage duration must be positive, got %q", part)
		}
		out = append(out, hierarchy.LevelOutage{Level: level, Outage: dur})
	}
	return out, nil
}

func parseScenario(scope, target string) (failure.Scenario, error) {
	sc := failure.Scenario{}
	parsed, err := failure.ParseScope(scope)
	if err != nil {
		return sc, err
	}
	sc.Scope = parsed
	age, err := units.ParseDuration(target)
	if err != nil {
		return sc, fmt.Errorf("bad -target: %w", err)
	}
	sc.TargetAge = age
	return sc, nil
}
