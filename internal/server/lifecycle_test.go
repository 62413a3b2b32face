package server

// The shared job lifecycle as a transition table: every event (start,
// finish ok/err, user cancel, drain, replay after a restart) applied to a
// job in every state (queued, running, done, failed, cancelled), checking
// the next state and the journaled event — or its absence. The Service
// runs over a scripted executor, so the table tests the shell the daemon
// and the coordinator share, not either executor.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"greencell/internal/rng"
	"greencell/internal/sim"
)

// scriptedExec is an Executor whose executions end when the test sends
// an outcome, or when their context is cancelled. Jobs start only when
// the test calls RunJob.
type scriptedExec struct{}

func (scriptedExec) NewRun(j *Job) (Run, error) {
	return &scriptedRun{started: make(chan struct{}), outcome: make(chan error, 1)}, nil
}
func (scriptedExec) Full(int) bool         { return false }
func (scriptedExec) Enqueue(*Job)          {}
func (scriptedExec) Replay(JournalEntry)   {}
func (scriptedExec) Routes(*http.ServeMux) {}
func (scriptedExec) Stop()                 {}

// scriptedRun closes started when its (single) execution begins.
type scriptedRun struct {
	started chan struct{}
	outcome chan error
}

func (r *scriptedRun) Execute(ctx context.Context) (*JobResult, error) {
	close(r.started)
	select {
	case err := <-r.outcome:
		return &JobResult{}, err
	case <-ctx.Done():
		return &JobResult{}, fmt.Errorf("interrupted: %w", ctx.Err())
	}
}
func (r *scriptedRun) Progress(JobStatus) []SeedStatus              { return nil }
func (r *scriptedRun) Stream(context.Context, io.Writer, int) error { return nil }
func (r *scriptedRun) Close()                                       {}
func (r *scriptedRun) Restore() *JobResult                          { return nil }

var testIdentity = Identity{
	Program:      "lifecycle-test",
	IDPrefix:     "job-",
	Metrics:      "test_",
	QueuedGauge:  "test_jobs_queued",
	RunningGauge: "test_jobs_running",
	Draining:     "draining",
	Full:         "full",
	Requeued:     "requeued by drain",
}

// lifecycleParams are one case's randomized parameters.
type lifecycleParams struct {
	seeds         int    // seeds in the request, ∈ [1, 4]
	decoys        int    // queued jobs submitted first, ∈ [0, 3]
	failMsg       string // the executor's error for a failed run
	cancelRunning bool   // reach "cancelled" from running, not queued
}

// harness drives one job through a Service backed by scriptedExec.
type harness struct {
	t      *testing.T
	p      lifecycleParams
	path   string
	s      *Service
	closed bool
	id     string
	runs   sync.WaitGroup
	ran    chan struct{} // closed when the job's RunJob returns
}

func openService(t *testing.T, path string) *Service {
	t.Helper()
	s := NewService(new(sync.Mutex), testIdentity, scriptedExec{})
	if _, err := s.Open(path); err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func (h *harness) status() JobStatus {
	h.t.Helper()
	st, err := h.s.Job(h.id)
	if err != nil {
		h.t.Fatalf("Job(%s): %v", h.id, err)
	}
	return st
}

// events returns the job's journaled events.
func (h *harness) events() []string {
	h.t.Helper()
	entries, _, err := LoadJournal(h.path)
	if err != nil {
		h.t.Fatalf("LoadJournal: %v", err)
	}
	var out []string
	for _, e := range entries {
		if e.ID == h.id {
			out = append(out, e.Event)
		}
	}
	return out
}

func (h *harness) submit() {
	h.t.Helper()
	spec := sim.ScenarioSpec{Slots: 2, Seed: 1}
	for i := 0; i < h.p.decoys; i++ {
		if _, err := h.s.Submit(JobRequest{Spec: spec}); err != nil {
			h.t.Fatalf("Submit decoy: %v", err)
		}
	}
	st, err := h.s.Submit(JobRequest{Spec: spec, Replications: h.p.seeds})
	if err != nil {
		h.t.Fatalf("Submit: %v", err)
	}
	h.id = st.ID
}

func (h *harness) job() *Job {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.jobs[h.id]
}

// start calls RunJob, returning once a queued job runs, or once RunJob
// has declined a job in any other state.
func (h *harness) start() {
	h.t.Helper()
	j := h.job()
	queued := h.status().State == JobQueued
	ran := make(chan struct{})
	h.runs.Add(1)
	go func() {
		defer h.runs.Done()
		h.s.RunJob(j)
		close(ran)
	}()
	if !queued {
		<-ran
		return
	}
	select {
	case <-j.run.(*scriptedRun).started:
		h.ran = ran
	case <-ran:
		h.t.Fatal("RunJob declined a queued job")
	}
}

// finish ends the running execution with err and waits for RunJob.
func (h *harness) finish(err error) {
	h.job().run.(*scriptedRun).outcome <- err
	<-h.ran
}

func (h *harness) cancel() {
	h.t.Helper()
	if _, err := h.s.Cancel(h.id); err != nil {
		h.t.Fatalf("Cancel: %v", err)
	}
}

// drain runs a zero-grace drain.
func (h *harness) drain() {
	h.t.Helper()
	if err := h.s.Close(); err != nil {
		h.t.Fatalf("Close: %v", err)
	}
	h.closed = true
	h.runs.Wait()
}

// replay restarts the service on the same journal.
func (h *harness) replay() {
	h.t.Helper()
	if !h.closed {
		h.drain()
	}
	h.s, h.closed = openService(h.t, h.path), false
	if !h.status().Recovered {
		h.t.Fatalf("replayed job %s not flagged recovered", h.id)
	}
}

func (h *harness) teardown() {
	if !h.closed {
		if err := h.s.Close(); err != nil {
			h.t.Errorf("Close: %v", err)
		}
	}
	h.runs.Wait()
}

// reach drives a fresh job into state from, asserting each step.
func (h *harness) reach(from JobState) {
	h.t.Helper()
	h.submit()
	steps := []string{"submitted"}
	switch from {
	case JobRunning:
		h.start()
		steps = append(steps, "started")
	case JobDone:
		h.start()
		h.finish(nil)
		steps = append(steps, "started", "done")
	case JobFailed:
		h.start()
		h.finish(errors.New(h.p.failMsg))
		steps = append(steps, "started", "failed")
	case JobCancelled:
		if h.p.cancelRunning {
			h.start()
			steps = append(steps, "started")
		}
		h.cancel()
		steps = append(steps, "cancelled")
	}
	if st := h.status(); st.State != from {
		h.t.Fatalf("setup: job is %s, want %s", st.State, from)
	}
	if got := h.events(); fmt.Sprint(got) != fmt.Sprint(steps) {
		h.t.Fatalf("setup journal %v, want %v", got, steps)
	}
}

func TestLifecycleTransitions(t *testing.T) {
	src := rng.New(20140630).Split("lifecycle-transitions")
	// setup randomizes a case's parameters.
	setup := func() lifecycleParams {
		return lifecycleParams{
			seeds:         1 + src.Intn(4),
			decoys:        src.Intn(4),
			failMsg:       fmt.Sprintf("seed %d failed: boom", src.Intn(1000)),
			cancelRunning: src.Bernoulli(0.5),
		}
	}

	const na JobState = "" // the event cannot occur from this state
	type transition struct {
		from    JobState
		event   string
		want    JobState
		journal string // the event journaled by this step; "" for none
	}
	table := []transition{
		{JobQueued, "start", JobRunning, "started"},
		{JobQueued, "finish-ok", na, ""}, // no execution in flight
		{JobQueued, "finish-err", na, ""},
		{JobQueued, "cancel", JobCancelled, "cancelled"},
		{JobQueued, "drain", JobQueued, ""},
		{JobQueued, "replay", JobQueued, ""},

		{JobRunning, "start", JobRunning, ""},
		{JobRunning, "finish-ok", JobDone, "done"},
		{JobRunning, "finish-err", JobFailed, "failed"},
		{JobRunning, "cancel", JobCancelled, "cancelled"},
		{JobRunning, "drain", JobQueued, ""},
		{JobRunning, "replay", JobQueued, ""},
	}
	for _, terminal := range []JobState{JobDone, JobFailed, JobCancelled} {
		table = append(table,
			transition{terminal, "start", terminal, ""},
			transition{terminal, "finish-ok", na, ""},
			transition{terminal, "finish-err", na, ""},
			transition{terminal, "cancel", terminal, ""},
			transition{terminal, "drain", terminal, ""},
			transition{terminal, "replay", terminal, ""},
		)
	}

	for round := 0; round < 3; round++ {
		for _, tc := range table {
			if tc.want == na {
				continue
			}
			p := setup()
			t.Run(fmt.Sprintf("%s/%s/%d", tc.from, tc.event, round), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "journal.jsonl")
				h := &harness{t: t, p: p, path: path, s: openService(t, path)}
				defer h.teardown()
				h.reach(tc.from)
				before := h.events()
				errBefore := h.status().Error

				switch tc.event {
				case "start":
					h.start()
				case "finish-ok":
					h.finish(nil)
				case "finish-err":
					h.finish(errors.New(p.failMsg))
				case "cancel":
					h.cancel()
				case "drain":
					h.drain()
				case "replay":
					h.replay()
				}

				st := h.status()
				if st.State != tc.want {
					t.Fatalf("state %s, want %s", st.State, tc.want)
				}
				after := h.events()
				var added []string
				if len(after) > len(before) {
					added = after[len(before):]
				}
				want := []string{}
				if tc.journal != "" {
					want = append(want, tc.journal)
				}
				if fmt.Sprint(added) != fmt.Sprint(want) {
					t.Fatalf("journaled %v, want %v", added, want)
				}
				switch {
				case tc.event == "finish-err" && st.Error != p.failMsg:
					t.Fatalf("failed job error %q, want %q", st.Error, p.failMsg)
				case tc.event == "replay" && tc.want.Terminal() && st.Error != errBefore:
					t.Fatalf("replay changed the error from %q to %q", errBefore, st.Error)
				}
			})
		}
	}
}

// TestReplayKeepsFailedJobError: a failed job's journaled error survives
// a restart — a restarted daemon reports the same message, not an empty
// one.
func TestReplayKeepsFailedJobError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	req := JobRequest{Spec: sim.ScenarioSpec{Slots: 2, Seed: 3}}
	var buf bytes.Buffer
	for _, e := range []journalEntry{
		{Event: "submitted", ID: "job-000001", Req: &req},
		{Event: "started", ID: "job-000001"},
		{Event: "failed", ID: "job-000001", Error: "boom"},
	} {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		buf.Write(append(b, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("writing journal: %v", err)
	}
	s, err := New(Config{JournalPath: path})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	st, err := s.Job("job-000001")
	if err != nil {
		t.Fatalf("replayed job missing: %v", err)
	}
	if st.State != JobFailed || st.Error != "boom" {
		t.Fatalf("replayed job: state %s error %q, want failed %q", st.State, st.Error, "boom")
	}
}
