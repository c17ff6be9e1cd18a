package main

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stordep/internal/dist"
	"stordep/internal/opt"
)

// solutionBlock strips the mode-specific header: everything after the
// first blank line is the solution report, which must be identical
// across the single-process, sharded-merge and coordinator paths.
func solutionBlock(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "\n\n")
	if i < 0 {
		t.Fatalf("no solution block in output:\n%s", out)
	}
	return out[i+2:]
}

func exhaustiveReference(t *testing.T) string {
	t.Helper()
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", exhaustive: true}); err != nil {
		t.Fatal(err)
	}
	return solutionBlock(t, buf.String())
}

// TestRunShardOutMergeRoundTrip covers the offline flow: every shard
// saved with -out, then -merge reproduces the unsharded report exactly,
// for a two- and a three-way split.
func TestRunShardOutMergeRoundTrip(t *testing.T) {
	want := exhaustiveReference(t)
	for _, shards := range []int{2, 3} {
		dir := t.TempDir()
		files := make([]string, shards)
		for s := 0; s < shards; s++ {
			files[s] = filepath.Join(dir, fmt.Sprintf("shard%d.json", s))
			var buf strings.Builder
			o := options{objective: "worst", shard: fmt.Sprintf("%d/%d", s, shards), out: files[s]}
			if err := run(&buf, o); err != nil {
				t.Fatalf("shard %d/%d: %v", s, shards, err)
			}
			if !strings.Contains(buf.String(), "Wrote shard result to") {
				t.Errorf("shard %d/%d output missing the -out note:\n%s", s, shards, buf.String())
			}
		}

		var merged strings.Builder
		if err := runMerge(&merged, options{}, files); err != nil {
			t.Fatal(err)
		}
		if got := solutionBlock(t, merged.String()); got != want {
			t.Errorf("%d shards: merged report differs from unsharded:\n--- merged\n%s\n--- unsharded\n%s", shards, got, want)
		}

		// A duplicated shard file changes nothing.
		var dup strings.Builder
		if err := runMerge(&dup, options{}, append(append([]string{}, files...), files[1])); err != nil {
			t.Fatal(err)
		}
		if got := solutionBlock(t, dup.String()); got != want {
			t.Errorf("%d shards: merge with a duplicate file diverged:\n%s", shards, got)
		}
	}
}

// TestRunMergeOut: -merge -out writes the merged Result, byte-identical
// to the unsharded -exhaustive -out file, and merging that one file
// again prints the unsharded report.
func TestRunMergeOut(t *testing.T) {
	want := exhaustiveReference(t)
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.json")
	if err := run(&strings.Builder{}, options{objective: "worst", exhaustive: true, out: whole}); err != nil {
		t.Fatal(err)
	}
	files := []string{filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")}
	for s, f := range files {
		if err := run(&strings.Builder{}, options{objective: "worst", shard: fmt.Sprintf("%d/2", s), out: f}); err != nil {
			t.Fatal(err)
		}
	}
	merged := filepath.Join(dir, "merged.json")
	var buf strings.Builder
	if err := runMerge(&buf, options{out: merged}, files); err != nil {
		t.Fatal(err)
	}
	block, note, ok := strings.Cut(solutionBlock(t, buf.String()), "\nWrote shard result to "+merged+"\n")
	if !ok || note != "" || block != want {
		t.Errorf("-merge -out report:\n%s\nwant the unsharded block followed by the -out note", buf.String())
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	wantFile, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantFile) {
		t.Errorf("merged file differs from the unsharded result:\n%s\nvs\n%s", got, wantFile)
	}
	var again strings.Builder
	if err := runMerge(&again, options{}, []string{merged}); err != nil {
		t.Fatal(err)
	}
	if got := solutionBlock(t, again.String()); got != want {
		t.Errorf("re-merging the merged file:\n%s\nwant\n%s", got, want)
	}
}

func TestRunMergeRejects(t *testing.T) {
	if err := runMerge(&strings.Builder{}, options{}, nil); err == nil {
		t.Error("merge without files accepted")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMerge(&strings.Builder{}, options{}, []string{bad}); err == nil {
		t.Error("garbage result file accepted")
	}
	if err := runMerge(&strings.Builder{}, options{}, []string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("nonexistent file accepted")
	}

	// A partial merge (one shard of three) must fail loudly.
	partial := filepath.Join(dir, "partial.json")
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", shard: "0/3", out: partial}); err != nil {
		t.Fatal(err)
	}
	if err := runMerge(&strings.Builder{}, options{}, []string{partial}); err == nil || !strings.Contains(err.Error(), "missing shard") {
		t.Errorf("partial merge: err = %v, want a missing-shard error", err)
	}
}

func TestRunOutRequiresCandidateIndex(t *testing.T) {
	var buf strings.Builder
	err := run(&buf, options{objective: "worst", out: filepath.Join(t.TempDir(), "x.json")})
	if err == nil || !strings.Contains(err.Error(), "-out") {
		t.Errorf("coordinate descent with -out: err = %v", err)
	}
}

// TestRunOutInfeasibleShard: a shard whose slice has no feasible
// candidate still writes a mergeable result carrying its evaluations,
// the pair merges to opt.ErrNoFeasible, and without -out the shard
// itself fails with it.
func TestRunOutInfeasibleShard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		o     options
		evals int // per shard: half the space
	}{
		{"mirror", options{objective: "worst", links: true, rto: "1m", rpo: "1m"}, 4},
		{"tape", options{objective: "worst", rto: "1m"}, 6},
	} {
		dir := t.TempDir()
		files := []string{filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")}
		for s, f := range files {
			var buf strings.Builder
			o := tc.o
			o.shard, o.out = fmt.Sprintf("%d/2", s), f
			if err := run(&buf, o); err != nil {
				t.Fatalf("%s shard %d: %v", tc.name, s, err)
			}
			if !strings.Contains(buf.String(), "No feasible candidate") {
				t.Errorf("%s shard %d output:\n%s", tc.name, s, buf.String())
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dist.DecodeResult(data)
			if err != nil {
				t.Fatal(err)
			}
			if res.Feasible || res.Evaluations != tc.evals {
				t.Errorf("%s shard %d result: %+v, want infeasible with %d evaluations", tc.name, s, res, tc.evals)
			}
		}
		// Merging two infeasible halves reports no feasible design, not a
		// bogus winner.
		if err := runMerge(&strings.Builder{}, options{}, files); !errors.Is(err, opt.ErrNoFeasible) {
			t.Errorf("%s: all-infeasible merge: err = %v, want opt.ErrNoFeasible", tc.name, err)
		}
		o := tc.o
		o.shard = "0/2"
		if err := run(&strings.Builder{}, o); !errors.Is(err, opt.ErrNoFeasible) {
			t.Errorf("%s: infeasible shard without -out: err = %v, want opt.ErrNoFeasible", tc.name, err)
		}
	}
}

// TestRunCoordinator drives the real coordinator path against two
// in-process worker servers and requires the same report as the
// single-process exhaustive run; -out writes the merged Result, and
// -merge of that one file prints the same report again.
func TestRunCoordinator(t *testing.T) {
	want := exhaustiveReference(t)

	a := httptest.NewServer(dist.NewHandler(dist.HandlerOptions{}))
	defer a.Close()
	b := httptest.NewServer(dist.NewHandler(dist.HandlerOptions{}))
	defer b.Close()

	var buf strings.Builder
	file := filepath.Join(t.TempDir(), "dist.json")
	o := options{
		objective:      "worst",
		coordinator:    a.URL + ", " + b.URL + "/",
		attemptTimeout: 30 * time.Second,
		speculateAfter: 5 * time.Second,
		out:            file,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "across 2 workers") {
		t.Errorf("output missing the worker count:\n%s", out)
	}
	got, note, ok := strings.Cut(solutionBlock(t, out), "\nWrote shard result to "+file+"\n")
	if !ok || note != "" {
		t.Errorf("coordinator output missing the -out note:\n%s", out)
	}
	if got != want {
		t.Errorf("coordinator report differs from single-process:\n--- coordinator\n%s\n--- single\n%s", got, want)
	}
	var merged strings.Builder
	if err := runMerge(&merged, options{}, []string{file}); err != nil {
		t.Fatalf("-merge of the coordinator's -out file: %v", err)
	}
	if got := solutionBlock(t, merged.String()); got != want {
		t.Errorf("-merge of the coordinator's result differs:\n--- merged\n%s\n--- single\n%s", got, want)
	}
}

func TestRunCoordinatorRejects(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", coordinator: "http://x", shard: "0/2"}); err == nil ||
		!strings.Contains(err.Error(), "-shard") {
		t.Error("coordinator with -shard should be rejected")
	}
	if err := run(&buf, options{objective: "worst", coordinator: " , "}); err == nil {
		t.Error("coordinator without URLs accepted")
	}
	dead := httptest.NewServer(nil)
	url := dead.URL
	dead.Close()
	if err := run(&buf, options{objective: "worst", coordinator: url}); err == nil {
		t.Error("unreachable worker accepted")
	}
}

// TestRunCoordinatorByzantineValidation is the CI e2e scenario
// in-process: three authenticated workers, one wrapped to always lie,
// and -validate 2 — the report must still match the single-process
// exhaustive run exactly.
func TestRunCoordinatorByzantineValidation(t *testing.T) {
	want := exhaustiveReference(t)

	const token = "ci-shared-secret"
	var urls []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(dist.NewHandler(dist.HandlerOptions{AuthToken: token}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}

	var buf strings.Builder
	o := options{
		objective:      "worst",
		coordinator:    strings.Join(urls, ","),
		attemptTimeout: 30 * time.Second,
		authToken:      token,
		validateK:      2,
		chaosLiars:     1,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if got := solutionBlock(t, buf.String()); got != want {
		t.Errorf("byzantine coordinator report differs from single-process:\n--- coordinator\n%s\n--- single\n%s", got, want)
	}
}

// TestRunCoordinatorWrongTokenFails: a coordinator holding the wrong
// secret is rejected by every worker and the run fails loudly.
func TestRunCoordinatorWrongTokenFails(t *testing.T) {
	srv := httptest.NewServer(dist.NewHandler(dist.HandlerOptions{AuthToken: "right"}))
	defer srv.Close()

	var buf strings.Builder
	o := options{
		objective:   "worst",
		coordinator: srv.URL,
		authToken:   "wrong",
	}
	err := run(&buf, o)
	if err == nil || !strings.Contains(err.Error(), "unauthenticated") {
		t.Errorf("err = %v, want an unauthenticated-job failure", err)
	}
}
