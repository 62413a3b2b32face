package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"greencell/internal/metrics"
	"greencell/internal/sim"
)

// tinySpec is the fast test scenario: the paper preset cut to 8 slots.
func tinySpec(seed int64) sim.ScenarioSpec {
	return sim.ScenarioSpec{Slots: 8, Seed: seed}
}

// slowSpec runs long enough (~10s if uninterrupted) that tests can
// reliably observe and interrupt it mid-run.
func slowSpec(seed int64) sim.ScenarioSpec {
	return sim.ScenarioSpec{Slots: 2000, Seed: seed}
}

// journalEntry is the journal record as the tests spell it.
type journalEntry = JournalEntry

// newTestServer builds a journalled server in a temp dir.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.JournalPath == "" {
		cfg.JournalPath = filepath.Join(t.TempDir(), "journal.jsonl")
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, cfg.JournalPath
}

// waitState polls a job until pred holds (or the deadline passes).
func waitState(t *testing.T, s *Server, id string, pred func(JobStatus) bool, what string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s; last status: %+v", id, what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkGoroutines fails the test if the goroutine count stays above base
// (plus slack for runtime helpers) once everything should have exited.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// referenceStream runs the spec's first seed locally with an attached
// Recorder — the exact greencellsim -metrics path — and returns the JSONL.
func referenceStream(t *testing.T, spec sim.ScenarioSpec, seed int64) []byte {
	t.Helper()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	sc.Seed = seed
	var buf bytes.Buffer
	rec := sim.NewRecorder(metrics.NewJSONLWriter(&buf), sim.HeaderFor(sc, spec.Label()))
	rec.Attach(&sc, false)
	if _, err := sim.Run(sc); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Recorder.Close: %v", err)
	}
	return buf.Bytes()
}

// TestJobRunsToDoneWithByteIdenticalStream is the determinism contract:
// a submitted job completes, reports per-seed results, and its streamed
// metrics canonicalize to the same bytes as a local instrumented run.
func TestJobRunsToDoneWithByteIdenticalStream(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	st, err := s.Submit(JobRequest{Spec: tinySpec(5), Replications: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != JobQueued && st.State != JobRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	if len(st.Seeds) != 2 || st.Seeds[0] != 5 || st.Seeds[1] != 6 {
		t.Fatalf("seeds = %v, want [5 6]", st.Seeds)
	}

	st = waitState(t, s, st.ID, func(st JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Seeds) != 2 || st.Result.Summary == nil {
		t.Fatalf("result incomplete: %+v", st.Result)
	}
	if st.Result.Summary.AvgEnergyCost.N != 2 {
		t.Fatalf("summary over %d seeds, want 2", st.Result.Summary.AvgEnergyCost.N)
	}
	for _, p := range st.Progress {
		if p.State != "done" || p.SlotsDone != 8 {
			t.Fatalf("seed progress %+v, want done with 8 slots", p)
		}
	}

	// The streamed metrics must canonicalize byte-identically to the
	// local run of the same (spec, seed).
	var got bytes.Buffer
	if err := s.Stream(context.Background(), st.ID, &got, 0); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	cGot, err := metrics.CanonicalizeJSONL(got.Bytes())
	if err != nil {
		t.Fatalf("canonicalize streamed: %v", err)
	}
	cWant, err := metrics.CanonicalizeJSONL(referenceStream(t, tinySpec(5), 5))
	if err != nil {
		t.Fatalf("canonicalize reference: %v", err)
	}
	if !bytes.Equal(cGot, cWant) {
		t.Fatalf("streamed metrics differ from the local run:\n got %d bytes\nwant %d bytes", len(cGot), len(cWant))
	}

	// from_slot resumes mid-stream: header and summary always included,
	// slot records only from the given slot.
	var resumed bytes.Buffer
	if err := s.Stream(context.Background(), st.ID, &resumed, 6); err != nil {
		t.Fatalf("Stream(from_slot=6): %v", err)
	}
	lines := strings.Split(strings.TrimSpace(resumed.String()), "\n")
	// header + slots 6,7 + summary
	if len(lines) != 4 {
		t.Fatalf("resumed stream has %d lines, want 4:\n%s", len(lines), resumed.String())
	}

	// A second replay is identical to the first: the log is append-only.
	var again bytes.Buffer
	if err := s.Stream(context.Background(), st.ID, &again, 0); err != nil {
		t.Fatalf("Stream replay: %v", err)
	}
	if !bytes.Equal(got.Bytes(), again.Bytes()) {
		t.Fatal("replaying the stream produced different bytes")
	}
}

// TestCancelStopsRunningJob: DELETE on a running job observably interrupts
// the replications mid-run, reports the interrupted seeds, and leaks no
// goroutines.
func TestCancelStopsRunningJob(t *testing.T) {
	base := runtime.NumGoroutine()
	s, journalPath := newTestServer(t, Config{})

	st, err := s.Submit(JobRequest{Spec: slowSpec(1), Replications: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, st.ID, func(st JobStatus) bool {
		if st.State != JobRunning {
			return false
		}
		for _, p := range st.Progress {
			if p.SlotsDone > 0 {
				return true
			}
		}
		return false
	}, "running with progress")

	start := time.Now()
	st, err = s.Cancel(st.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st.State != JobCancelled {
		t.Fatalf("after cancel, state = %s", st.State)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancellation took %v; the run was not interrupted", took)
	}
	if st.Result == nil || len(st.Result.FailedSeeds) == 0 {
		t.Fatalf("cancelled job must report interrupted seeds; result = %+v", st.Result)
	}
	for _, p := range st.Progress {
		if p.SlotsDone >= 2000 {
			t.Fatalf("seed %d ran to completion despite cancel", p.Seed)
		}
	}

	// The terminal event is journaled (a user cancel is final, not
	// recoverable).
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	if !strings.Contains(string(data), `"event":"cancelled"`) {
		t.Fatalf("journal lacks the cancelled event:\n%s", data)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkGoroutines(t, base)
}

// TestDrainLeavesRunningJobRecoverable: a drain interrupts the job without
// journaling a terminal event, so the journal's last word is "started" and
// a new instance re-queues it.
func TestDrainLeavesRunningJobRecoverable(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	s, _ := newTestServer(t, Config{JournalPath: journalPath})

	st, err := s.Submit(JobRequest{Spec: slowSpec(1)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, st.ID, func(st JobStatus) bool { return st.State == JobRunning }, "running")

	// Zero-grace drain: interrupt immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	checkGoroutines(t, base)

	// Submissions after a drain are refused.
	if _, err := s.Submit(JobRequest{Spec: tinySpec(1)}); err == nil {
		t.Fatal("Submit after drain succeeded")
	}

	entries, _, err := LoadJournal(journalPath)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	last := ""
	for _, e := range entries {
		if e.ID == st.ID {
			last = e.Event
		}
	}
	if last != "started" {
		t.Fatalf("journal's last event for %s is %q, want started (recoverable)", st.ID, last)
	}

	// A fresh instance recovers and re-runs the job. Shrink it first so
	// the re-run completes quickly: recovery replays the journaled spec,
	// so rewrite the journal with a tiny request but the same lifecycle.
	small := JobRequest{Spec: tinySpec(1)}
	rewritten := []journalEntry{
		{Event: "submitted", ID: st.ID, Req: &small},
		{Event: "started", ID: st.ID},
	}
	var buf bytes.Buffer
	for _, e := range rewritten {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		buf.Write(append(b, '\n'))
	}
	if err := os.WriteFile(journalPath, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("rewriting journal: %v", err)
	}

	s2, _ := newTestServer(t, Config{JournalPath: journalPath})
	defer func() {
		if err := s2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	st2, err := s2.Job(st.ID)
	if err != nil {
		t.Fatalf("recovered job missing: %v", err)
	}
	if !st2.Recovered {
		t.Fatal("recovered job not flagged as recovered")
	}
	st2 = waitState(t, s2, st.ID, func(st JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st2.State != JobDone {
		t.Fatalf("recovered job ended %s (%s), want done", st2.State, st2.Error)
	}
}

// TestJournalRecovery: terminal journal entries become read-only history
// (410 on their stream), non-terminal ones re-run, and job IDs continue
// past the journal's maximum.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	req := JobRequest{Spec: tinySpec(3)}
	var buf bytes.Buffer
	for _, e := range []journalEntry{
		{Event: "submitted", ID: "job-000001", Req: &req},
		{Event: "started", ID: "job-000001"},
		{Event: "done", ID: "job-000001"},
		{Event: "submitted", ID: "job-000002", Req: &req},
	} {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		buf.Write(append(b, '\n'))
	}
	// A torn final line (crash mid-append) must be tolerated.
	buf.WriteString(`{"event":"sub`)
	if err := os.WriteFile(journalPath, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("writing journal: %v", err)
	}

	s, _ := newTestServer(t, Config{JournalPath: journalPath})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	// job-000001 is history: done, stream gone.
	st1, err := s.Job("job-000001")
	if err != nil {
		t.Fatalf("historical job missing: %v", err)
	}
	if st1.State != JobDone || !st1.Recovered {
		t.Fatalf("historical job: %+v", st1)
	}
	var sink bytes.Buffer
	err = s.Stream(context.Background(), "job-000001", &sink, 0)
	var ae *apiError
	if err == nil || !asAPIError(err, &ae) || ae.code != 410 {
		t.Fatalf("streaming a pre-restart job: err = %v, want 410", err)
	}

	// job-000002 re-runs to done.
	st2 := waitState(t, s, "job-000002", func(st JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st2.State != JobDone || !st2.Recovered {
		t.Fatalf("recovered job: state %s recovered %v", st2.State, st2.Recovered)
	}

	// New IDs continue after the journal's maximum.
	st3, err := s.Submit(JobRequest{Spec: tinySpec(1)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st3.ID != "job-000003" {
		t.Fatalf("next ID = %s, want job-000003", st3.ID)
	}
}

// asAPIError is errors.As without importing errors in every call site.
func asAPIError(err error, target **apiError) bool {
	for err != nil {
		if ae, ok := err.(*apiError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestHTTPAPI exercises the daemon's wire surface against a live handler;
// the contract it shares with the coordinator is TestHTTPContract's.
func TestHTTPAPI(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Invalid spec: 400 naming the offending field.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"preset":"nope"}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 400 || !strings.Contains(body, "preset") {
		t.Fatalf("invalid spec: status %d body %s", resp.StatusCode, body)
	}

	// Valid submission (its 202 + Location is TestHTTPContract's).
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"slots":8,"seed":5}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	loc := resp.Header.Get("Location")
	var st JobStatus
	if err := json.Unmarshal([]byte(readAll(t, resp)), &st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}

	// Poll over HTTP to done.
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err = http.Get(ts.URL + loc)
		if err != nil {
			t.Fatalf("GET %s: %v", loc, err)
		}
		if err := json.Unmarshal([]byte(readAll(t, resp)), &st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
	}
	if st.State != JobDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	// The metrics stream arrives as NDJSON: header first, summary last.
	resp, err = http.Get(ts.URL + loc + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	stream := readAll(t, resp)
	lines := strings.Split(strings.TrimSpace(stream), "\n")
	if len(lines) != 10 { // header + 8 slots + summary
		t.Fatalf("stream has %d lines, want 10:\n%s", len(lines), stream)
	}
	if !strings.Contains(lines[0], `"type":"header"`) || !strings.Contains(lines[9], `"type":"summary"`) {
		t.Fatalf("stream not framed by header/summary:\n%s", stream)
	}

	// GET /v1/jobs lists it.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	if body := readAll(t, resp); !strings.Contains(body, st.ID) {
		t.Fatalf("job list lacks %s: %s", st.ID, body)
	}

	// Prometheus metrics.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom := readAll(t, resp)
	for _, needle := range []string{
		"greencelld_jobs_submitted_total 1",
		"greencelld_jobs_done_total 1",
		"sim_slots_total 8",
		"# TYPE greencelld_jobs_running gauge",
	} {
		if !strings.Contains(prom, needle) {
			t.Fatalf("prometheus exposition lacks %q:\n%s", needle, prom)
		}
	}
}

// TestStreamFollowsLive: a client connected before the job finishes sees
// records arrive incrementally and the stream terminate at the summary.
// TestHTTPRejectsRetiredWarmStartLP: a job whose spec still carries the
// retired warm_start_lp knob is refused with a 400 naming the field, and
// no job is created for it.
func TestHTTPRejectsRetiredWarmStartLP(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"slots":8,"seed":5,"warm_start_lp":true}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 400 || !strings.Contains(body, "warm_start_lp") {
		t.Fatalf("warm_start_lp spec: status %d body %s", resp.StatusCode, body)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submission created %d job(s)", len(jobs))
	}
}

func TestStreamFollowsLive(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(JobRequest{Spec: sim.ScenarioSpec{Slots: 40, Seed: 2}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Connect immediately — most of the stream has not happened yet.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if n != 42 { // header + 40 slots + summary
		t.Fatalf("live stream delivered %d lines, want 42", n)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return string(data)
}
