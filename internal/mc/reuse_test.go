package mc

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
)

// freshReport is the campaign's Report over a fresh core.Build of its
// design, the pooled Systems bypassed.
func freshReport(t *testing.T, c *Campaign) *Report {
	t.Helper()
	sys, err := core.Build(c.Design)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := c.sample(sys, 0, c.Trials)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.estimate(sys, obs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReuseCampaignBuilds: Run, Sample and Estimate build the design into
// a pooled System that other campaigns built theirs into before, larger
// or smaller, or failed to: each Report equals the one over a fresh
// build, and a failing build leaves nothing the next campaign reads.
func TestReuseCampaignBuilds(t *testing.T) {
	camps := scratchCampaigns()
	broken := casestudy.Baseline()
	broken.Workload.DataCap *= 1000
	failing := &Campaign{Design: broken, Seed: 1, Trials: 2}
	want := make([]*Report, len(camps))
	for i, c := range camps {
		want[i] = freshReport(t, c)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		for _, i := range order {
			if _, err := failing.Run(); err == nil {
				t.Fatal("an overloaded design built")
			}
			c := camps[i]
			rep, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want[i]) {
				t.Errorf("%s: Run's report %+v, over a fresh build %+v", c.Design.Name, rep, want[i])
			}
			obs, err := c.Sample(0, c.Trials)
			if err != nil {
				t.Fatal(err)
			}
			rep, err = c.Estimate(obs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want[i]) {
				t.Errorf("%s: Sample and Estimate's report %+v, over a fresh build %+v", c.Design.Name, rep, want[i])
			}
		}
	}
}

// TestReuseCampaignBuildsConcurrent: campaigns running at once, each
// drawing its build's System from the one pool, return the Reports they
// return over fresh builds; under the race detector a System two
// campaigns share shows up as a race.
func TestReuseCampaignBuildsConcurrent(t *testing.T) {
	camps := scratchCampaigns()
	want := make([]*Report, len(camps))
	for i, c := range camps {
		want[i] = freshReport(t, c)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*2*len(camps))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for k := range camps {
					i := (g + round + k) % len(camps)
					rep, err := camps[i].Run()
					if err != nil {
						errs <- err
						continue
					}
					if !reflect.DeepEqual(rep, want[i]) {
						errs <- fmt.Errorf("goroutine %d round %d, %s: report differs from one over a fresh build",
							g, round, camps[i].Design.Name)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
