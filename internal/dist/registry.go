package dist

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerState is a registered worker's membership state.
type WorkerState int

const (
	// StateLive workers are dispatched shards.
	StateLive WorkerState = iota
	// StateQuarantined workers are excluded until their backoff expires:
	// they missed health probes, failed repeatedly, or lost a K-way
	// validation vote.
	StateQuarantined
	// StateProbation workers have served their quarantine and await a
	// successful health probe before readmission.
	StateProbation
)

// String renders the state for logs and metrics.
func (s WorkerState) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateQuarantined:
		return "quarantined"
	case StateProbation:
		return "probation"
	default:
		return fmt.Sprintf("WorkerState(%d)", int(s))
	}
}

// Prober is the optional health surface a Worker can expose. HTTPWorker
// probes GET /v1/health; ChaosWorker can flap it. Workers without a
// Prober are treated as always healthy — only coordinator-reported
// failures and validation verdicts can quarantine them.
type Prober interface {
	Health(ctx context.Context) error
}

// probeTimeout bounds each individual health probe.
const probeTimeout = 2 * time.Second

// RegistryOptions configures a Registry. The zero value is usable.
type RegistryOptions struct {
	// ProbeInterval spaces health-probe rounds in Start. Default 5s.
	ProbeInterval time.Duration
	// EvictAfter is the consecutive failed probes before a live worker
	// is evicted into quarantine. Default 3.
	EvictAfter int
	// FailureLimit is the consecutive coordinator-reported failures
	// (crashes, timeouts, malformed results) before a worker is
	// quarantined. 0 disables failure-based quarantine, matching the
	// pre-registry coordinator: retries alone decide.
	FailureLimit int
	// QuarantineBackoff is the first quarantine's duration, doubling on
	// every repeat offense (capped at 64x). Default 1s.
	QuarantineBackoff time.Duration
	// Metrics receives eviction/quarantine/readmission counters; nil
	// allocates one.
	Metrics *Metrics
	// Logf, when non-nil, receives one line per membership transition —
	// the quarantine log an operator greps for.
	Logf func(format string, args ...any)
}

// regEntry is one registered worker's membership record.
type regEntry struct {
	worker     Worker
	state      WorkerState
	probeFails int       // consecutive failed health probes while live
	failures   int       // consecutive coordinator-reported failures
	offenses   int       // quarantine count; drives the backoff doubling
	until      time.Time // quarantine expiry
}

// Registry is a live view of the worker fleet: workers are added and
// removed dynamically, probed for health, evicted into quarantine on
// missed probes or repeated failures, and readmitted through probation
// once they prove healthy again. A Coordinator built with
// NewCoordinatorRegistry draws its dispatch set from the registry on
// every assignment, so membership can change mid-run.
type Registry struct {
	opts    RegistryOptions
	m       *Metrics
	probing atomic.Bool

	mu        sync.Mutex
	entries   map[string]*regEntry
	watchers  map[int]func()
	nextWatch int
}

// NewRegistry builds an empty registry with defaulted options.
func NewRegistry(opts RegistryOptions) *Registry {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 5 * time.Second
	}
	if opts.EvictAfter <= 0 {
		opts.EvictAfter = 3
	}
	if opts.QuarantineBackoff <= 0 {
		opts.QuarantineBackoff = time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	m := opts.Metrics
	if m == nil {
		m = &Metrics{}
	}
	return &Registry{opts: opts, m: m, entries: make(map[string]*regEntry), watchers: make(map[int]func())}
}

// Metrics returns the registry's instrumentation (shared with the
// coordinator when built through NewCoordinatorRegistry).
func (r *Registry) Metrics() *Metrics { return r.m }

// Add registers a worker as live. Duplicate IDs and empty IDs are
// rejected — an ID collision would corrupt the vote and exclusion
// ledgers keyed by it.
func (r *Registry) Add(w Worker) error {
	id := w.ID()
	if id == "" {
		return fmt.Errorf("dist: worker with empty ID")
	}
	r.mu.Lock()
	if _, dup := r.entries[id]; dup {
		r.mu.Unlock()
		return fmt.Errorf("dist: duplicate worker ID %q", id)
	}
	r.entries[id] = &regEntry{worker: w, state: StateLive}
	r.mu.Unlock()
	r.opts.Logf("registry: admitted worker %s", id)
	r.notify()
	return nil
}

// Remove deregisters a worker entirely; a no-op for unknown IDs.
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	_, ok := r.entries[id]
	delete(r.entries, id)
	r.mu.Unlock()
	if ok {
		r.opts.Logf("registry: removed worker %s", id)
		r.notify()
	}
}

// Live returns the dispatchable workers, sorted by ID for determinism.
func (r *Registry) Live() []Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Worker
	for _, e := range r.entries {
		if e.state == StateLive {
			out = append(out, e.worker)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Members returns every registered worker regardless of state, sorted
// by ID. The coordinator sizes its exclusion-reset rule on this: a
// quarantined worker may return, so it still counts as a possible
// server of a shard.
func (r *Registry) Members() []Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Worker, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.worker)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// State reports a worker's membership state.
func (r *Registry) State(id string) (WorkerState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return 0, false
	}
	return e.state, true
}

// IsLive reports whether the worker is currently dispatchable.
func (r *Registry) IsLive(id string) bool {
	s, ok := r.State(id)
	return ok && s == StateLive
}

// Watch registers a callback invoked (without the registry lock held)
// after every membership change: additions, removals, evictions,
// quarantines and readmissions. The coordinator uses it to wake blocked
// dispatch loops and adopt newly added workers mid-run. The returned
// function unsubscribes.
func (r *Registry) Watch(fn func()) (unwatch func()) {
	r.mu.Lock()
	id := r.nextWatch
	r.nextWatch++
	r.watchers[id] = fn
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.watchers, id)
		r.mu.Unlock()
	}
}

func (r *Registry) notify() {
	r.mu.Lock()
	ws := make([]func(), 0, len(r.watchers))
	for _, fn := range r.watchers {
		ws = append(ws, fn)
	}
	r.mu.Unlock()
	for _, fn := range ws {
		fn()
	}
}

// ReportSuccess records a successful dispatch: the worker's consecutive
// failure count resets.
func (r *Registry) ReportSuccess(id string) {
	r.mu.Lock()
	if e, ok := r.entries[id]; ok {
		e.failures = 0
	}
	r.mu.Unlock()
}

// ReportFailure records a failed dispatch (error, timeout, malformed
// result). When FailureLimit consecutive failures accumulate, the
// worker is quarantined.
func (r *Registry) ReportFailure(id string) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok || e.state != StateLive {
		r.mu.Unlock()
		return
	}
	e.failures++
	limit := r.opts.FailureLimit
	trip := limit > 0 && e.failures >= limit
	var reason string
	if trip {
		reason = fmt.Sprintf("%d consecutive failures", e.failures)
		r.quarantineLocked(e, id, reason, &r.m.WorkersQuarantined)
	}
	r.mu.Unlock()
	if trip {
		r.notify()
	}
}

// Quarantine forcibly quarantines a worker — the coordinator's verdict
// for a byzantine minority vote. A no-op for unknown or already
// non-live workers.
func (r *Registry) Quarantine(id, reason string) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok || e.state != StateLive {
		r.mu.Unlock()
		return
	}
	r.quarantineLocked(e, id, reason, &r.m.WorkersQuarantined)
	r.mu.Unlock()
	r.notify()
}

// quarantineLocked moves a live entry into quarantine with exponential
// backoff and schedules its expiry. counter distinguishes health-based
// evictions from failure/byzantine quarantines.
func (r *Registry) quarantineLocked(e *regEntry, id, reason string, counter *atomic.Int64) {
	shift := e.offenses
	if shift > 6 {
		shift = 6
	}
	backoff := r.opts.QuarantineBackoff << shift
	e.state = StateQuarantined
	e.offenses++
	e.failures = 0
	e.probeFails = 0
	e.until = time.Now().Add(backoff)
	counter.Add(1)
	r.opts.Logf("registry: quarantined worker %s for %v (offense %d): %s", id, backoff, e.offenses, reason)
	time.AfterFunc(backoff, func() { r.expire(id) })
}

// expire moves a quarantined worker whose backoff has passed to the
// next state: probation when health probing is active and the worker is
// probeable (a healthy probe must readmit it), directly back to live
// otherwise (nothing else ever could).
func (r *Registry) expire(id string) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok || e.state != StateQuarantined || time.Now().Before(e.until) {
		r.mu.Unlock()
		return
	}
	_, probeable := e.worker.(Prober)
	if probeable && r.probing.Load() {
		e.state = StateProbation
		r.mu.Unlock()
		r.opts.Logf("registry: worker %s entered probation", id)
		r.notify()
		return
	}
	e.state = StateLive
	r.m.WorkersReadmitted.Add(1)
	r.mu.Unlock()
	r.opts.Logf("registry: readmitted worker %s (no probe surface)", id)
	r.notify()
}

// Probe runs one health-probe round: live probeable workers accumulate
// consecutive failures toward eviction, and a probation worker is
// readmitted by one healthy probe or re-quarantined by a failed one.
// Probes run concurrently, each bounded by probeTimeout.
func (r *Registry) Probe(ctx context.Context) {
	type target struct {
		id    string
		p     Prober
		state WorkerState
	}
	r.mu.Lock()
	var targets []target
	for id, e := range r.entries {
		p, ok := e.worker.(Prober)
		if !ok {
			continue
		}
		if e.state == StateLive || e.state == StateProbation {
			targets = append(targets, target{id, p, e.state})
		}
	}
	r.mu.Unlock()

	results := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t target) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			results[i] = t.p.Health(pctx)
		}(i, t)
	}
	wg.Wait()

	changed := false
	r.mu.Lock()
	for i, t := range targets {
		e, ok := r.entries[t.id]
		if !ok || e.state != t.state {
			continue // membership moved under us; skip the stale verdict
		}
		healthy := results[i] == nil
		switch e.state {
		case StateLive:
			if healthy {
				e.probeFails = 0
				continue
			}
			e.probeFails++
			if e.probeFails >= r.opts.EvictAfter {
				r.quarantineLocked(e, t.id,
					fmt.Sprintf("missed %d consecutive health probes: %v", e.probeFails, results[i]),
					&r.m.WorkersEvicted)
				changed = true
			}
		case StateProbation:
			if !healthy {
				r.quarantineLocked(e, t.id,
					fmt.Sprintf("failed probation probe: %v", results[i]),
					&r.m.WorkersEvicted)
				changed = true
				continue
			}
			e.state = StateLive
			e.probeFails = 0
			r.m.WorkersReadmitted.Add(1)
			r.opts.Logf("registry: readmitted worker %s after a healthy probe", t.id)
			changed = true
		}
	}
	r.mu.Unlock()
	if changed {
		r.notify()
	}
}

// Start runs Probe rounds every ProbeInterval until ctx is canceled.
// It marks probing active, which routes expired quarantines through
// probation instead of direct readmission.
func (r *Registry) Start(ctx context.Context) {
	r.probing.Store(true)
	defer r.probing.Store(false)
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.Probe(ctx)
		}
	}
}
