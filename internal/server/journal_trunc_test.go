package server

// Daemon-side journal replay robustness (the coordinator twin lives in
// internal/cluster/journal_test.go): a journal cut at EVERY byte offset
// must replay without panicking and re-queue exactly the jobs whose last
// complete lifecycle event is non-terminal.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greencell/internal/sim"
)

// TestDaemonJournalTruncationEveryByte sweeps every crash-mid-append
// outcome of a journal holding one job per lifecycle state.
func TestDaemonJournalTruncationEveryByte(t *testing.T) {
	req := JobRequest{Spec: sim.ScenarioSpec{Slots: 2, Seed: 3}}
	var full bytes.Buffer
	for _, e := range []journalEntry{
		{Event: "submitted", ID: "job-000001", Req: &req},
		{Event: "started", ID: "job-000001"},
		{Event: "done", ID: "job-000001"},
		{Event: "submitted", ID: "job-000002", Req: &req},
		{Event: "started", ID: "job-000002"},
		{Event: "submitted", ID: "job-000003", Req: &req},
		{Event: "started", ID: "job-000003"},
		{Event: "cancelled", ID: "job-000003"},
		{Event: "submitted", ID: "job-000004", Req: &req},
		{Event: "started", ID: "job-000004"},
		{Event: "failed", ID: "job-000004", Error: "boom"},
	} {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		full.Write(append(b, '\n'))
	}

	data := full.Bytes()
	path := filepath.Join(t.TempDir(), "trunc.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatalf("cut %d: write: %v", cut, err)
		}

		// Fold the complete lines of the prefix the way recovery does.
		last := map[string]string{}
		for _, line := range strings.Split(string(prefix), "\n") {
			var e journalEntry
			if json.Unmarshal([]byte(line), &e) != nil {
				continue
			}
			last[e.ID] = e.Event
		}

		s, err := New(Config{JournalPath: path})
		if err != nil {
			t.Fatalf("cut %d: New: %v", cut, err)
		}
		for id, ev := range last {
			st, err := s.Job(id)
			if err != nil {
				t.Fatalf("cut %d: job %s lost in replay: %v", cut, id, err)
			}
			switch ev {
			case "submitted", "started":
				if !st.Recovered {
					t.Fatalf("cut %d: job %s not flagged recovered", cut, id)
				}
				// Re-queued, running, or already re-done (the 2-slot job can
				// finish between New and this check) — never a replayed
				// failure or cancellation.
				if st.State == JobFailed || st.State == JobCancelled {
					t.Fatalf("cut %d: recoverable job %s replayed terminal %s", cut, id, st.State)
				}
			default:
				if string(st.State) != ev {
					t.Fatalf("cut %d: job %s replayed as %s, want %s", cut, id, st.State, ev)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
	}
}
