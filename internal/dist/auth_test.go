package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSignVerify(t *testing.T) {
	payload := []byte(`{"version":1}`)
	sig := Sign("secret", payload)
	if !Verify("secret", payload, sig) {
		t.Fatal("a fresh signature must verify")
	}
	if Verify("secret", payload, "") {
		t.Error("empty signature must not verify")
	}
	if Verify("secret", payload, Sign("other-token", payload)) {
		t.Error("a signature under the wrong token must not verify")
	}
	if Verify("secret", []byte(`{"version":2}`), sig) {
		t.Error("a signature over different bytes must not verify")
	}
	if Sign("a", payload) == Sign("b", payload) {
		t.Error("different tokens must sign differently")
	}
}

// TestHTTPAuthEndToEnd: with a shared secret on both sides, jobs run
// and the merged answer is exact; without the token (or with the wrong
// one), the worker rejects the job before evaluation with a distinct
// wire error.
func TestHTTPAuthEndToEnd(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	const token = "e2e-shared-secret"
	var workers []Worker
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(NewHandler(HandlerOptions{AuthToken: token}))
		defer srv.Close()
		workers = append(workers, &HTTPWorker{
			BaseURL:   srv.URL,
			Name:      fmt.Sprintf("auth%d", i),
			AuthToken: token,
		})
	}
	c, err := NewCoordinator(workers, Options{AttemptTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "authenticated transport", oracle, res)
}

func TestHTTPAuthRejectsUnauthenticated(t *testing.T) {
	job := testJob(t)
	srv := httptest.NewServer(NewHandler(HandlerOptions{AuthToken: "right"}))
	defer srv.Close()

	for _, tc := range []struct {
		name  string
		token string
	}{
		{"missing token", ""},
		{"wrong token", "wrong"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &HTTPWorker{BaseURL: srv.URL, AuthToken: tc.token}
			_, err := w.Run(context.Background(), job, nil)
			if !errors.Is(err, ErrUnauthenticated) {
				t.Fatalf("err = %v, want ErrUnauthenticated", err)
			}
		})
	}

	// The raw HTTP status is 401, distinct from 400 bad-payload.
	resp, err := http.Post(srv.URL+RunPath, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unsigned POST: HTTP %d, want 401", resp.StatusCode)
	}
}

// TestHTTPAuthVerifiesResultSignature: a coordinator holding a token
// must reject results whose signature is missing or forged — a
// man-in-the-middle cannot substitute answers.
func TestHTTPAuthVerifiesResultSignature(t *testing.T) {
	job := testJob(t)

	// A server that answers honestly but signs with the wrong token.
	forged := httptest.NewServer(NewHandler(HandlerOptions{AuthToken: ""}))
	defer forged.Close()
	w := &HTTPWorker{BaseURL: forged.URL, AuthToken: ""}
	res, err := w.Run(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		sig  string
	}{
		{"unsigned result", ""},
		{"forged signature", Sign("attacker-token", data)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				fmt.Fprintf(rw, `{"type":"result","result":%s,"sig":%q}`+"\n", data, tc.sig)
			}))
			defer srv.Close()
			hw := &HTTPWorker{BaseURL: srv.URL, AuthToken: "right"}
			if _, err := hw.Run(context.Background(), job, nil); !errors.Is(err, ErrUnauthenticated) {
				t.Errorf("err = %v, want ErrUnauthenticated", err)
			}
		})
	}
}

func TestHandlerHealthInfo(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerOptions{}))
	defer srv.Close()
	w := &HTTPWorker{BaseURL: srv.URL}

	info, err := w.HealthInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "ok" || info.Version != Version {
		t.Fatalf("health = %+v, want ok/version %d", info, Version)
	}
	if info.Evaluations != 0 || info.InFlight != 0 {
		t.Fatalf("fresh worker health = %+v, want zero load", info)
	}

	if _, err := w.Run(context.Background(), testJob(t), nil); err != nil {
		t.Fatal(err)
	}
	info, err = w.HealthInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Evaluations != 24 {
		t.Errorf("cumulative evaluations = %d, want 24 (the whole test space)", info.Evaluations)
	}
	if info.UptimeSeconds < 0 {
		t.Errorf("uptime = %v, want >= 0", info.UptimeSeconds)
	}
}
