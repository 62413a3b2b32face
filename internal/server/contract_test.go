package server_test

// One HTTP contract, two executors: the same table runs against the
// daemon (server.Server over its local worker pool) and the coordinator
// (cluster.Coordinator over one in-process daemon), because both serve the
// shared job service's routes. Executor-specific behaviour — from_slot
// resumption, 410 for pre-restart streams, /v1/workers — is tested with
// its executor.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greencell/internal/cluster"
	"greencell/internal/server"
)

// contractTarget builds a service of QueueDepth 1 and returns its
// handler and its Drain. room is how many jobs it accepts beyond one
// running job before it is full: the daemon's queue bounds waiting jobs,
// the coordinator's bounds all non-terminal ones.
type contractTarget struct {
	name string
	room int
	open func(t *testing.T) (http.Handler, func(context.Context) error)
}

var contractTargets = []contractTarget{
	{"daemon", 1, func(t *testing.T) (http.Handler, func(context.Context) error) {
		srv, err := server.New(server.Config{
			JournalPath: filepath.Join(t.TempDir(), "journal.jsonl"),
			Workers:     1,
			QueueDepth:  1,
		})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		return srv.Handler(), srv.Drain
	}},
	{"coordinator", 0, func(t *testing.T) (http.Handler, func(context.Context) error) {
		worker, err := server.New(server.Config{})
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		ts := httptest.NewServer(worker.Handler())
		t.Cleanup(func() {
			ts.Close()
			if err := worker.Close(); err != nil {
				t.Errorf("worker Close: %v", err)
			}
		})
		c, err := cluster.New(cluster.Config{
			Workers:           []string{ts.URL},
			JournalPath:       filepath.Join(t.TempDir(), "coord.jsonl"),
			QueueDepth:        1,
			PollInterval:      10 * time.Millisecond,
			HeartbeatInterval: 25 * time.Millisecond,
			LeaseTimeout:      10 * time.Minute,
		})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		return c.Handler(), c.Drain
	}},
}

type exchange struct {
	code int
	hdr  http.Header
	body string
}

func do(t *testing.T, method, url, body string) exchange {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s %s: %v", method, url, err)
	}
	return exchange{resp.StatusCode, resp.Header, string(data)}
}

// waitState polls the job at loc until pred holds.
func waitState(t *testing.T, base, loc string, pred func(server.JobState) bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st server.JobStatus
		if err := cluster.DoJSON(context.Background(), nil, http.MethodGet, base+loc, nil, http.StatusOK, &st); err != nil {
			t.Fatalf("GET %s: %v", loc, err)
		}
		if pred(st.State) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", loc, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPContract(t *testing.T) {
	// The steps run in order against one service: the capacity and drain
	// steps leave it full and then draining.
	steps := []struct {
		name  string
		check func(t *testing.T, base string, tg contractTarget)
	}{
		{"submit_202_location", func(t *testing.T, base string, tg contractTarget) {
			x := do(t, http.MethodPost, base+"/v1/jobs", `{"spec":{"slots":8,"seed":5}}`)
			loc := x.hdr.Get("Location")
			if x.code != 202 || !strings.HasPrefix(loc, "/v1/jobs/") || !strings.Contains(x.body, strings.TrimPrefix(loc, "/v1/jobs/")) {
				t.Fatalf("submit: status %d Location %q body %s", x.code, loc, x.body)
			}
			waitState(t, base, loc, server.JobState.Terminal)
		}},
		{"unknown_field_400", func(t *testing.T, base string, tg contractTarget) {
			x := do(t, http.MethodPost, base+"/v1/jobs", `{"sped":{}}`)
			if x.code != 400 || !strings.Contains(x.body, "sped") {
				t.Fatalf("unknown field: status %d body %s", x.code, x.body)
			}
		}},
		{"oversize_body_413", func(t *testing.T, base string, tg contractTarget) {
			x := do(t, http.MethodPost, base+"/v1/jobs", strings.Repeat(" ", 1<<20+1))
			if x.code != 413 {
				t.Fatalf("oversize body: status %d body %s", x.code, x.body)
			}
		}},
		{"unknown_job_404", func(t *testing.T, base string, tg contractTarget) {
			for _, req := range [][2]string{
				{http.MethodGet, "/v1/jobs/job-999999"},
				{http.MethodDelete, "/v1/jobs/job-999999"},
				{http.MethodGet, "/v1/jobs/job-999999/metrics"},
			} {
				if x := do(t, req[0], base+req[1], ""); x.code != 404 {
					t.Fatalf("%s %s: status %d, want 404", req[0], req[1], x.code)
				}
			}
		}},
		{"full_503_retry_after", func(t *testing.T, base string, tg contractTarget) {
			// One slow job runs; room more fit; the next is turned away.
			slow := `{"spec":{"slots":2000,"seed":1}}`
			x := do(t, http.MethodPost, base+"/v1/jobs", slow)
			if x.code != 202 {
				t.Fatalf("first slow job: status %d body %s", x.code, x.body)
			}
			waitState(t, base, x.hdr.Get("Location"), func(s server.JobState) bool { return s == server.JobRunning })
			for i := 0; i < tg.room; i++ {
				if x := do(t, http.MethodPost, base+"/v1/jobs", slow); x.code != 202 {
					t.Fatalf("job %d of room %d: status %d body %s", i+1, tg.room, x.code, x.body)
				}
			}
			x = do(t, http.MethodPost, base+"/v1/jobs", slow)
			if x.code != 503 || x.hdr.Get("Retry-After") != "1" {
				t.Fatalf("full: status %d Retry-After %q, want 503 / 1", x.code, x.hdr.Get("Retry-After"))
			}
		}},
		{"prometheus_content_type", func(t *testing.T, base string, tg contractTarget) {
			x := do(t, http.MethodGet, base+"/metrics", "")
			if ct := x.hdr.Get("Content-Type"); x.code != 200 || ct != "text/plain; version=0.0.4; charset=utf-8" {
				t.Fatalf("metrics: status %d Content-Type %q", x.code, ct)
			}
		}},
	}

	for _, target := range contractTargets {
		t.Run(target.name, func(t *testing.T) {
			h, drain := target.open(t)
			ts := httptest.NewServer(h)
			defer ts.Close()
			for _, step := range steps {
				t.Run(step.name, func(t *testing.T) { step.check(t, ts.URL, target) })
			}

			// Readiness flips to 503 on a drain; liveness stays 200.
			t.Run("readyz_drain_split", func(t *testing.T) {
				for _, probe := range []string{"/readyz", "/healthz"} {
					if x := do(t, http.MethodGet, ts.URL+probe, ""); x.code != 200 {
						t.Fatalf("%s before drain: %d", probe, x.code)
					}
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := drain(ctx); err != nil {
					t.Fatalf("Drain: %v", err)
				}
				if x := do(t, http.MethodGet, ts.URL+"/readyz", ""); x.code != 503 || !strings.Contains(x.body, "draining") {
					t.Fatalf("readyz after drain: %d %s, want 503 draining", x.code, x.body)
				}
				if x := do(t, http.MethodGet, ts.URL+"/healthz", ""); x.code != 200 {
					t.Fatalf("healthz after drain: %d, want 200 (liveness is not readiness)", x.code)
				}
			})
		})
	}
}
