// Analytic-vs-simulation validation: replay the baseline hierarchy's
// retrieval-point lifecycle on a discrete-event simulator, inject
// failures at thousands of instants, and compare the measured data loss
// against the framework's closed-form worst-case bounds (§3.3.3 of the
// paper).
//
// Expected outcome: the simulated maximum never exceeds the analytic
// bound, and gets within one sampling step of it — the bounds are tight.
// The one exception the simulator exposes is the cyclic full+incremental
// policy, where the paper's formula misses the incremental-free gap
// during the full's window (see EXPERIMENTS.md).
package main

import (
	"fmt"
	"log"
	"time"

	"stordep"
	"stordep/internal/report"
	"stordep/internal/sim"
)

func main() {
	log.SetFlags(0)

	sys, err := stordep.Baseline().Build()
	if err != nil {
		log.Fatal(err)
	}
	chain := sys.Chain()

	simulator, err := sim.New(chain)
	if err != nil {
		log.Fatal(err)
	}
	horizon := 30 * stordep.Week
	fmt.Printf("Simulating %v of RP propagation for: %s\n\n",
		horizon, chain)
	hist, err := simulator.Run(nil, nil, nil, 0, horizon)
	if err != nil {
		log.Fatal(err)
	}

	cases := []struct {
		name      string
		surviving []int
		targetAge time.Duration
	}{
		{"object corruption (roll back 24h; mirrors survive)", []int{1, 2, 3}, 24 * time.Hour},
		{"array failure (mirrors lost; tapes survive)", []int{2, 3}, 0},
		{"site disaster (only the vault survives)", []int{3}, 0},
	}

	tbl := report.NewTable("Worst-case data loss: analytic bound vs discrete-event simulation",
		"Failure", "Analytic", "Simulated max", "Simulated mean", "Samples")
	from, to, step := 20*stordep.Week, horizon-stordep.Week, time.Hour
	violated := false
	for _, tc := range cases {
		// The analytic bound: loss at the best surviving level.
		bound := time.Duration(-1)
		for _, j := range tc.surviving {
			if loss, ok := chain.WorstCaseLoss(j, tc.targetAge); ok && (bound < 0 || loss < bound) {
				bound = loss
			}
		}
		st, err := hist.LossStudy(tc.surviving, tc.targetAge, from, to, step)
		if err != nil {
			log.Fatal(err)
		}
		if st.Unrecoverable > 0 {
			log.Fatalf("%s: %d unrecoverable instants in steady state", tc.name, st.Unrecoverable)
		}
		verdict := "OK (within bound)"
		if st.Max > bound {
			verdict = "VIOLATION"
			violated = true
		}
		tbl.AddRow(
			tc.name,
			fmt.Sprintf("%.1f hr", bound.Hours()),
			fmt.Sprintf("%.1f hr (%s)", st.Max.Hours(), verdict),
			fmt.Sprintf("%.1f hr", st.Mean.Hours()),
			fmt.Sprintf("%d", st.Samples),
		)
	}
	fmt.Println(tbl.String())
	if violated {
		log.Fatal("a simulated loss exceeds its analytic bound")
	}

	// Show the guaranteed range holding in practice for the mirrors.
	r := chain.GuaranteedRange(1)
	fmt.Printf("Split-mirror guaranteed range %v: probing a failure at week 25...\n", r)
	failAt := 25 * stordep.Week
	for _, age := range []time.Duration{r.Newest, (r.Newest + r.Oldest) / 2, r.Oldest} {
		_, lvl, ok := hist.Loss([]int{1}, failAt, age)
		fmt.Printf("  target now-%v: recoverable=%v (level %d)\n", age, ok, lvl)
	}
}
