package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"greencell/internal/sim"
)

// The job journal is the job service's crash-consistency story, reusing
// the cmd/sweep -resume checkpoint idiom: an append-only JSON-Lines file
// of job lifecycle events, flushed per event, torn-final-line tolerant on
// load. A job is recoverable exactly when its last journaled lifecycle
// event is non-terminal ("submitted" or "started"): a restarted service
// re-queues it and — determinism being the whole point — the re-run
// produces the same results the interrupted run would have. Terminal
// events keep the job visible as history, with its error message.
//
// Lifecycle events, shared by the daemon ("job-" IDs) and the coordinator
// ("cjob-" IDs):
//
//	{"event":"submitted","id":"job-000001","req":{...}}
//	{"event":"started","id":"job-000001"}
//	{"event":"done","id":"job-000001"}
//	{"event":"failed","id":"job-000001","error":"..."}
//	{"event":"cancelled","id":"job-000001","error":"cancelled"}
//
// Any other event belongs to the executor and is handed to
// Executor.Replay on recovery. The coordinator journals one: "cell", a
// completed (seed, cache key, metrics) cell, so a restarted coordinator
// resumes a job from its last finished seed:
//
//	{"event":"cell","id":"cjob-000001","seed":3,"key":"ab12…","metrics":{...}}
type JournalEntry struct {
	Event   string           `json:"event"`
	ID      string           `json:"id"`
	Req     *JobRequest      `json:"req,omitempty"`
	Seed    int64            `json:"seed,omitempty"`
	Key     string           `json:"key,omitempty"`
	Metrics *sim.SeedMetrics `json:"metrics,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// lifecycleEvent reports whether an event moves a job through its
// lifecycle (as opposed to an executor event like "cell").
func lifecycleEvent(ev string) bool {
	switch ev {
	case "submitted", "started", "done", "failed", "cancelled":
		return true
	}
	return false
}

// journal appends lifecycle events to the journal file. A nil *journal is
// valid and records nothing (journalling disabled).
type journal struct {
	f *os.File
}

// openJournal opens (creating if needed) the append-only journal.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f}, nil
}

// append writes one event, unbuffered so a crash loses at most the event
// being written (a torn final line, tolerated on load).
func (j *journal) append(e JournalEntry) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = j.f.Write(append(b, '\n'))
	return err
}

// Close closes the journal file.
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}

// LoadJournal replays a journal file into its entries. A missing file is
// an empty journal. A torn final line — the signature of a crash
// mid-append — is dropped and its line number returned as torn (0 when
// the file ends cleanly); a torn line anywhere else is corruption and an
// error.
func LoadJournal(path string) (entries []JournalEntry, torn int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := strings.TrimSpace(scan.Text())
		if line == "" {
			continue
		}
		if torn != 0 {
			return nil, 0, fmt.Errorf("journal %s: corrupt record at line %d", path, torn)
		}
		var e JournalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			torn = lineNo // tolerated only as the final line
			continue
		}
		entries = append(entries, e)
	}
	if err := scan.Err(); err != nil {
		return nil, 0, fmt.Errorf("journal %s: %w", path, err)
	}
	return entries, torn, nil
}

// jobIDNum parses the numeric suffix of "<prefix>000123" IDs (0 if
// foreign).
func (s *Service) jobIDNum(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, s.id.IDPrefix))
	if err != nil {
		return 0
	}
	return n
}

// jobID renders the canonical ID for job number n. The daemon's "job-"
// and the coordinator's "cjob-" prefixes keep logs from a mixed fleet
// unambiguous.
func (s *Service) jobID(n int) string {
	return fmt.Sprintf("%s%06d", s.id.IDPrefix, n)
}
