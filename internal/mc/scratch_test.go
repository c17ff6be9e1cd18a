package mc

import (
	"fmt"
	"sync"
	"testing"

	"stordep/internal/casestudy"
)

// scratchCampaigns differ in everything a scratch's storage is shaped
// by, in an order where each leaves a scratch the next must reshape: a
// tape design then a mirror, operator faults on then off, and more then
// fewer devices and levels.
func scratchCampaigns() []*Campaign {
	return []*Campaign{
		{Design: casestudy.WeeklyVaultFI(), Seed: 5, Trials: 6, Op: pinnedOp},
		{Design: casestudy.Baseline(), Seed: 6, Trials: 6},
		{Design: casestudy.AsyncBMirror(10), Seed: 7, Trials: 8, Op: pinnedOp},
		{Design: casestudy.AsyncBMirror(1), Seed: 8, Trials: 8},
	}
}

// freshDigest is the campaign's digest with every trial on a scratch of
// its own, the pool bypassed.
func freshDigest(t *testing.T, c *Campaign) uint64 {
	t.Helper()
	r := testRunner(t, c)
	obs := make([]Obs, c.Trials)
	for i := range obs {
		o, err := r.trial(new(scratch), i)
		if err != nil {
			t.Fatal(err)
		}
		obs[i] = o
	}
	return Digest(obs)
}

// TestTrialScratchReuse: a trial on a scratch other trials left returns
// the Obs a trial on a fresh scratch does, whatever those trials ran,
// and a campaign's digest does not change after other campaigns ran on
// the pool. A buffer a trial does not reset before refilling (its
// level outages), a history window whose replays are not cleared, or a
// stream two trials share fails it.
func TestTrialScratchReuse(t *testing.T) {
	camps := scratchCampaigns()
	used := new(scratch)
	for round := 0; round < 2; round++ {
		for _, c := range camps {
			r := testRunner(t, c)
			for i := 0; i < c.Trials; i++ {
				want, err := r.trial(new(scratch), i)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.trial(used, i)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("round %d, %s trial %d on a used scratch: %+v, on a fresh one %+v",
						round, c.Design.Name, i, got, want)
				}
			}
		}
	}
	want := make([]uint64, len(camps))
	for i, c := range camps {
		want[i] = freshDigest(t, c)
	}
	// Forward, then backward, so each campaign runs after every other.
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		for _, i := range order {
			rep, err := camps[i].Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Digest != want[i] {
				t.Errorf("%s after other campaigns: digest %#x, on fresh scratches %#x",
					camps[i].Design.Name, rep.Digest, want[i])
			}
		}
	}
}

// TestTrialScratchConcurrent: campaigns running at once, each drawing
// its trials' scratches from the one pool, give the digests they give
// alone. Four goroutines run three rounds of every campaign, each in its
// own order, two workers each.
func TestTrialScratchConcurrent(t *testing.T) {
	camps := scratchCampaigns()
	want := make([]uint64, len(camps))
	for i, c := range camps {
		want[i] = freshDigest(t, c)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*3*len(camps))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range camps {
					i := (g + round + k) % len(camps)
					c := *camps[i]
					c.Workers = 2
					rep, err := c.Run()
					if err != nil {
						errs <- err
						continue
					}
					if rep.Digest != want[i] {
						errs <- fmt.Errorf("goroutine %d round %d, %s: digest %#x, alone %#x",
							g, round, c.Design.Name, rep.Digest, want[i])
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
