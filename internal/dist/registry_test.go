package dist

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryMembership(t *testing.T) {
	r := NewRegistry(RegistryOptions{})
	if err := r.Add(&Loopback{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(&Loopback{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(&Loopback{Name: "a"}); err == nil {
		t.Error("duplicate ID should be rejected")
	}
	if err := r.Add(&Loopback{}); err == nil {
		t.Error("empty ID should be rejected")
	}

	live := r.Live()
	if len(live) != 2 || live[0].ID() != "a" || live[1].ID() != "b" {
		t.Fatalf("Live() = %v, want [a b] sorted", ids(live))
	}
	if got := ids(r.Members()); len(got) != 2 {
		t.Fatalf("Members() = %v, want 2 entries", got)
	}

	r.Remove("a")
	r.Remove("never-registered") // no-op
	if got := ids(r.Live()); len(got) != 1 || got[0] != "b" {
		t.Fatalf("after Remove: Live() = %v, want [b]", got)
	}
	if _, ok := r.State("a"); ok {
		t.Error("removed worker should have no state")
	}
}

func ids(ws []Worker) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.ID()
	}
	return out
}

// TestRegistryEvictsAndReadmitsFlappingWorker is the acceptance
// lifecycle: a worker whose health flaps is evicted after EvictAfter
// missed probes (visible in Metrics), serves its quarantine, passes
// through probation, and is readmitted on a healthy probe.
func TestRegistryEvictsAndReadmitsFlappingWorker(t *testing.T) {
	var sick atomic.Bool
	w := &Loopback{Name: "flappy", HealthErr: func() error {
		if sick.Load() {
			return errors.New("no thanks")
		}
		return nil
	}}
	r := NewRegistry(RegistryOptions{
		EvictAfter:        2,
		QuarantineBackoff: 10 * time.Millisecond,
	})
	if err := r.Add(w); err != nil {
		t.Fatal(err)
	}
	// Probing "active" routes expired quarantines through probation
	// instead of straight back to live.
	r.probing.Store(true)
	defer r.probing.Store(false)

	ctx := context.Background()
	r.Probe(ctx) // healthy
	if !r.IsLive("flappy") {
		t.Fatal("healthy worker should stay live")
	}

	sick.Store(true)
	r.Probe(ctx) // miss 1 of 2: still live
	if !r.IsLive("flappy") {
		t.Fatal("one missed probe must not evict with EvictAfter=2")
	}
	r.Probe(ctx) // miss 2 of 2: evicted
	if s, _ := r.State("flappy"); s != StateQuarantined {
		t.Fatalf("state after %d missed probes = %v, want quarantined", 2, s)
	}
	if got := r.Metrics().WorkersEvicted.Load(); got != 1 {
		t.Fatalf("WorkersEvicted = %d, want 1", got)
	}
	if len(r.Live()) != 0 {
		t.Fatal("quarantined worker must not be dispatchable")
	}

	// Let the quarantine expire; the worker lands in probation.
	waitForState(t, r, "flappy", StateProbation)

	// A failed probation probe re-quarantines...
	r.Probe(ctx)
	if s, _ := r.State("flappy"); s != StateQuarantined {
		t.Fatalf("state after failed probation probe = %v, want quarantined", s)
	}
	waitForState(t, r, "flappy", StateProbation)

	// ...and a healthy one readmits.
	sick.Store(false)
	r.Probe(ctx)
	if !r.IsLive("flappy") {
		t.Fatal("healthy probation probe should readmit the worker")
	}
	if got := r.Metrics().WorkersReadmitted.Load(); got != 1 {
		t.Fatalf("WorkersReadmitted = %d, want 1", got)
	}
}

func waitForState(t *testing.T, r *Registry, id string, want WorkerState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := r.State(id); ok && s == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	s, _ := r.State(id)
	t.Fatalf("worker %s stuck in state %v, want %v", id, s, want)
}

// TestRegistryFailureLimitQuarantine: repeated coordinator-reported
// failures quarantine a worker, successes reset the streak, and without
// a probe loop the quarantine expires straight back to live.
func TestRegistryFailureLimitQuarantine(t *testing.T) {
	r := NewRegistry(RegistryOptions{
		FailureLimit:      3,
		QuarantineBackoff: 10 * time.Millisecond,
	})
	if err := r.Add(&Loopback{Name: "shaky"}); err != nil {
		t.Fatal(err)
	}

	r.ReportFailure("shaky")
	r.ReportFailure("shaky")
	r.ReportSuccess("shaky") // resets the streak
	r.ReportFailure("shaky")
	r.ReportFailure("shaky")
	if !r.IsLive("shaky") {
		t.Fatal("streak was reset; 2 consecutive failures must not trip limit 3")
	}
	r.ReportFailure("shaky")
	if s, _ := r.State("shaky"); s != StateQuarantined {
		t.Fatalf("state after 3 consecutive failures = %v, want quarantined", s)
	}
	if got := r.Metrics().WorkersQuarantined.Load(); got != 1 {
		t.Fatalf("WorkersQuarantined = %d, want 1", got)
	}

	// No probe loop running: expiry readmits directly.
	waitForState(t, r, "shaky", StateLive)
	if got := r.Metrics().WorkersReadmitted.Load(); got != 1 {
		t.Fatalf("WorkersReadmitted = %d, want 1", got)
	}
}

func TestRegistryFailureLimitDisabledByDefault(t *testing.T) {
	r := NewRegistry(RegistryOptions{})
	if err := r.Add(&Loopback{Name: "w"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.ReportFailure("w")
	}
	if !r.IsLive("w") {
		t.Fatal("FailureLimit 0 must never quarantine on failures")
	}
}

func TestRegistryWatch(t *testing.T) {
	r := NewRegistry(RegistryOptions{QuarantineBackoff: time.Hour})
	var fires atomic.Int64
	unwatch := r.Watch(func() { fires.Add(1) })

	if err := r.Add(&Loopback{Name: "w"}); err != nil {
		t.Fatal(err)
	}
	if fires.Load() != 1 {
		t.Fatalf("fires after Add = %d, want 1", fires.Load())
	}
	r.Quarantine("w", "test verdict")
	if fires.Load() != 2 {
		t.Fatalf("fires after Quarantine = %d, want 2", fires.Load())
	}
	r.Quarantine("w", "already quarantined") // no-op: not live
	if fires.Load() != 2 {
		t.Fatalf("fires after no-op Quarantine = %d, want 2", fires.Load())
	}
	r.Remove("w")
	if fires.Load() != 3 {
		t.Fatalf("fires after Remove = %d, want 3", fires.Load())
	}

	unwatch()
	if err := r.Add(&Loopback{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if fires.Load() != 3 {
		t.Fatalf("unsubscribed watcher still fired: %d", fires.Load())
	}
}

// TestRegistryQuarantineBackoffDoubles: repeat offenders serve longer
// quarantines.
func TestRegistryQuarantineBackoffDoubles(t *testing.T) {
	// The registry logs from its expiry timers' goroutines.
	var logged atomic.Int64
	r := NewRegistry(RegistryOptions{
		QuarantineBackoff: 5 * time.Millisecond,
		Logf:              func(string, ...any) { logged.Add(1) },
	})
	if err := r.Add(&Loopback{Name: "w"}); err != nil {
		t.Fatal(err)
	}

	r.Quarantine("w", "first offense")
	waitForState(t, r, "w", StateLive)
	start := time.Now()
	r.Quarantine("w", "second offense")
	waitForState(t, r, "w", StateLive)
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("second offense served %v, want >= doubled backoff 10ms", elapsed)
	}
	if r.Metrics().WorkersQuarantined.Load() != 2 {
		t.Errorf("WorkersQuarantined = %d, want 2", r.Metrics().WorkersQuarantined.Load())
	}
	if logged.Load() == 0 {
		t.Error("quarantines should be logged")
	}
}

// TestRegistryStartProbesPeriodically: the background loop drives
// eviction without manual Probe calls.
func TestRegistryStartProbesPeriodically(t *testing.T) {
	w := &Loopback{Name: "dead", HealthErr: func() error { return errors.New("down") }}
	r := NewRegistry(RegistryOptions{
		ProbeInterval:     2 * time.Millisecond,
		EvictAfter:        2,
		QuarantineBackoff: time.Hour,
	})
	if err := r.Add(w); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Start(ctx)

	waitForState(t, r, "dead", StateQuarantined)
	if got := r.Metrics().WorkersEvicted.Load(); got != 1 {
		t.Errorf("WorkersEvicted = %d, want 1", got)
	}
}
