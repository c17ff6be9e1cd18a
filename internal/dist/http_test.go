package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/opt"
)

// TestHTTPEndToEnd runs a coordinator against two real HTTP workers
// (httptest servers wrapping NewHandler) and requires the merged answer
// to be byte-identical to the single-process search — the satellite e2e
// scenario in-process.
func TestHTTPEndToEnd(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	var workers []Worker
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(NewHandler(HandlerOptions{HeartbeatEvery: 10 * time.Millisecond}))
		defer srv.Close()
		workers = append(workers, &HTTPWorker{BaseURL: srv.URL, Name: fmt.Sprintf("http%d", i)})
	}
	for _, w := range workers {
		if err := w.(*HTTPWorker).Health(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	c, err := NewCoordinator(workers, Options{AttemptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "HTTP transport", oracle, res)

	m := c.Metrics()
	if m.HeartbeatsReceived.Load() < m.ShardsCompleted.Load() {
		t.Errorf("%d heartbeats for %d shards; every run streams at least one",
			m.HeartbeatsReceived.Load(), m.ShardsCompleted.Load())
	}
	if len(m.LastSeen()) != 2 {
		t.Errorf("liveness for %d workers, want 2", len(m.LastSeen()))
	}
}

func TestHandlerHealth(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerOptions{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: HTTP %d", resp.StatusCode)
	}
	w := &HTTPWorker{BaseURL: srv.URL}
	if err := w.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerOptions{}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+RunPath, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed job: HTTP %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + RunPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on run: HTTP %d, want 405", resp.StatusCode)
	}
}

func TestHTTPWorkerReportsExecutionErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerOptions{}))
	defer srv.Close()

	// Structurally valid, but the knob targets a level the design does
	// not have, so execution fails after decode: the worker must stream
	// an error line, not hang or fabricate a result.
	job := testJob(t)
	job.Knobs = []KnobSpec{RetCntKnobSpec("nonexistent-level", []int{1, 2})}
	w := &HTTPWorker{BaseURL: srv.URL}
	_, err := w.Run(context.Background(), job, nil)
	if err == nil || !strings.Contains(err.Error(), "nonexistent-level") {
		t.Errorf("err = %v, want the remote execution error surfaced", err)
	}
}

func TestHTTPWorkerRejectsBadServers(t *testing.T) {
	// A server that dies without a terminal line.
	truncated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"type":"heartbeat","evals":3}`)
	}))
	defer truncated.Close()
	w := &HTTPWorker{BaseURL: truncated.URL}
	var beats int
	job := testJob(t)
	if _, err := w.Run(context.Background(), job, func(int64) { beats++ }); !errors.Is(err, ErrBadResult) {
		t.Errorf("truncated stream: err = %v, want ErrBadResult", err)
	}
	if beats != 1 {
		t.Errorf("heartbeat callback ran %d times, want 1", beats)
	}

	// An HTTP error status.
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "on fire", http.StatusInternalServerError)
	}))
	defer failing.Close()
	w = &HTTPWorker{BaseURL: failing.URL}
	if _, err := w.Run(context.Background(), job, nil); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("500 server: err = %v, want the status surfaced", err)
	}

	// Garbage on the stream.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "<html>hello</html>")
	}))
	defer garbage.Close()
	w = &HTTPWorker{BaseURL: garbage.URL}
	if _, err := w.Run(context.Background(), job, nil); !errors.Is(err, ErrBadResult) {
		t.Errorf("garbage stream: err = %v, want ErrBadResult", err)
	}

	// An unknown stream message type.
	unknown := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"type":"gossip"}`)
	}))
	defer unknown.Close()
	w = &HTTPWorker{BaseURL: unknown.URL}
	if _, err := w.Run(context.Background(), job, nil); !errors.Is(err, ErrBadResult) {
		t.Errorf("unknown message: err = %v, want ErrBadResult", err)
	}

	// Version skew on the health endpoint.
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok","version":99}`)
	}))
	defer skewed.Close()
	w = &HTTPWorker{BaseURL: skewed.URL}
	if err := w.Health(context.Background()); !errors.Is(err, ErrVersion) {
		t.Errorf("skewed health: err = %v, want ErrVersion", err)
	}
}

func TestHTTPWorkerHonorsContext(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if f, ok := w.(http.Flusher); ok {
			fmt.Fprintln(w, `{"type":"heartbeat"}`)
			f.Flush()
		}
		<-r.Context().Done()
	}))
	defer hang.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	w := &HTTPWorker{BaseURL: hang.URL}
	start := time.Now()
	_, err := w.Run(ctx, testJob(t), nil)
	if err == nil {
		t.Fatal("expected an error from the canceled stream")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to unwind", elapsed)
	}
}

// TestHTTPLargeSpace6144 distributes the benchmark harness's
// 6144-candidate space (Table 7 knobs x a 512-option vault retention
// sweep) over two HTTP workers on loopback TCP and checks byte-identity
// with the single-process search. With -v it logs the wall-clock split,
// the source of the EXPERIMENTS.md "Distributed search" numbers.
func TestHTTPLargeSpace6144(t *testing.T) {
	if testing.Short() {
		t.Skip("6144-candidate space in -short mode")
	}
	// The root BenchmarkExhaustiveLarge* space: the Table 7-shaped knobs
	// extended with a 512-option vault retention sweep,
	// 2 x 2 x 3 x 512 = 6144.
	specs := testKnobSpecs(t)[:3]
	retOpts := make([]int, 512)
	for i := range retOpts {
		retOpts[i] = i + 1
	}
	specs = append(specs, RetCntKnobSpec("vaulting", retOpts))
	job, err := NewJob(casestudy.Baseline(), specs, testScenarioSpecs(), ObjectiveSpec{Kind: "worst"})
	if err != nil {
		t.Fatal(err)
	}

	knobs, err := BuildKnobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := BuildScenarios(job.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := BuildObjective(job.Objective)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	sol, err := opt.ExhaustiveOpts(casestudy.Baseline(), knobs, scs, obj, opt.ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	single := time.Since(t0)
	oracle, err := SolutionResult(sol, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}

	var workers []Worker
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(NewHandler(HandlerOptions{Workers: 1}))
		defer srv.Close()
		workers = append(workers, &HTTPWorker{BaseURL: srv.URL, Name: fmt.Sprintf("w%d", i)})
	}
	c, err := NewCoordinator(workers, Options{WorkersPerJob: 1})
	if err != nil {
		t.Fatal(err)
	}
	t0 = time.Now()
	res, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	dual := time.Since(t0)

	requireIdentical(t, "6144-candidate space", oracle, res)
	if oracle.Evaluations != 6144 {
		t.Errorf("space size %d, want 6144", oracle.Evaluations)
	}
	t.Logf("single-process (1 thread): %v; 2 HTTP workers (1 thread each): %v; speedup %.2fx",
		single, dual, float64(single)/float64(dual))
}
