package dist

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the coordinator's Prometheus-style instrumentation: shard
// lifecycle counters plus per-worker liveness. All methods are safe for
// concurrent use; the zero value is ready.
type Metrics struct {
	// ShardsDispatched counts dispatch attempts, including retries and
	// speculative duplicates.
	ShardsDispatched atomic.Int64
	// ShardsCompleted counts shards whose first valid result arrived.
	ShardsCompleted atomic.Int64
	// ShardsRetried counts failed attempts that were re-dispatched.
	ShardsRetried atomic.Int64
	// ShardsSpeculated counts straggler shards given a duplicate
	// dispatch while the original attempt was still in flight.
	ShardsSpeculated atomic.Int64
	// DuplicatesDiscarded counts results that arrived for an
	// already-completed shard (the losing side of a speculation race)
	// and, under K-way validation, agreed with its validated result.
	DuplicatesDiscarded atomic.Int64
	// WorkerErrors counts attempts that ended in an error or an invalid
	// response, including timeouts.
	WorkerErrors atomic.Int64
	// HeartbeatsReceived counts worker heartbeats seen.
	HeartbeatsReceived atomic.Int64
	// WorkersEvicted counts health-based removals from the live set:
	// missed probes while live, or a failed probation probe.
	WorkersEvicted atomic.Int64
	// WorkersQuarantined counts failure- and byzantine-based removals:
	// repeated dispatch failures, or losing a K-way validation vote.
	WorkersQuarantined atomic.Int64
	// WorkersReadmitted counts returns to the live set after quarantine.
	WorkersReadmitted atomic.Int64
	// ValidationMismatches counts K-way votes whose result digest
	// disagreed with the shard's majority, whether they arrived before
	// the shard validated or after.
	ValidationMismatches atomic.Int64
	// CandidatesPruned sums candidates retired by an admissible bound
	// without assessment, across validated shard results.
	CandidatesPruned atomic.Int64
	// BoundsComputed sums subtree lower bounds evaluated across
	// validated shard results.
	BoundsComputed atomic.Int64

	mu       sync.Mutex
	lastSeen map[string]time.Time // worker -> last heartbeat or result
}

// WorkerSeen records a liveness signal from the named worker.
func (m *Metrics) WorkerSeen(worker string, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lastSeen == nil {
		m.lastSeen = make(map[string]time.Time)
	}
	if at.After(m.lastSeen[worker]) {
		m.lastSeen[worker] = at
	}
}

// LastSeen returns the most recent liveness signal per worker.
func (m *Metrics) LastSeen() map[string]time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]time.Time, len(m.lastSeen))
	for w, t := range m.lastSeen {
		out[w] = t
	}
	return out
}

// WritePrometheus renders the metrics in the Prometheus text exposition
// format. Worker liveness is exported as seconds since the last signal,
// measured at now, so a scraper sees a hung worker's gauge climb.
func (m *Metrics) WritePrometheus(w io.Writer, now time.Time) error {
	counters := []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"stordep_dist_shards_dispatched_total", "Shard dispatch attempts, including retries and speculation.", &m.ShardsDispatched},
		{"stordep_dist_shards_completed_total", "Shards with a first valid result.", &m.ShardsCompleted},
		{"stordep_dist_shards_retried_total", "Failed attempts that were re-dispatched.", &m.ShardsRetried},
		{"stordep_dist_shards_speculated_total", "Straggler shards given a duplicate dispatch.", &m.ShardsSpeculated},
		{"stordep_dist_duplicates_discarded_total", "Results for already-completed shards.", &m.DuplicatesDiscarded},
		{"stordep_dist_worker_errors_total", "Attempts ending in error, timeout or invalid response.", &m.WorkerErrors},
		{"stordep_dist_heartbeats_received_total", "Worker heartbeats seen.", &m.HeartbeatsReceived},
		{"stordep_dist_workers_evicted_total", "Workers evicted for missed or failed health probes.", &m.WorkersEvicted},
		{"stordep_dist_workers_quarantined_total", "Workers quarantined for repeated failures or byzantine votes.", &m.WorkersQuarantined},
		{"stordep_dist_workers_readmitted_total", "Workers readmitted to the live set after quarantine.", &m.WorkersReadmitted},
		{"stordep_dist_validation_mismatches_total", "K-way validation votes disagreeing with the shard majority.", &m.ValidationMismatches},
		{"stordep_dist_candidates_pruned_total", "Candidates retired by an admissible bound without assessment.", &m.CandidatesPruned},
		{"stordep_dist_bounds_computed_total", "Subtree lower bounds evaluated across validated shards.", &m.BoundsComputed},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v.Load()); err != nil {
			return err
		}
	}
	seen := m.LastSeen()
	if len(seen) == 0 {
		return nil
	}
	workers := make([]string, 0, len(seen))
	for w := range seen {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	if _, err := fmt.Fprintf(w, "# HELP stordep_dist_worker_idle_seconds Seconds since the worker's last heartbeat or result.\n# TYPE stordep_dist_worker_idle_seconds gauge\n"); err != nil {
		return err
	}
	for _, worker := range workers {
		if _, err := fmt.Fprintf(w, "stordep_dist_worker_idle_seconds{worker=%q} %g\n",
			worker, now.Sub(seen[worker]).Seconds()); err != nil {
			return err
		}
	}
	return nil
}
