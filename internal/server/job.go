package server

// This file holds the job types and the queued→running→done/failed/
// cancelled state machine's vocabulary. It also owns the job service's
// only wall-clock reads and is on analysis.WallClockAllowedFiles: job
// lifecycle timestamps (both executors) and the coordinator's lease
// deadlines and breaker cooldowns, all of which surface only in API
// responses and operational decisions — never in the metrics stream, the
// journal, or a cache key.

import (
	"fmt"
	"time"

	"greencell/internal/sim"
)

// Now is the job service's single wall-clock read, kept in this
// allowlisted file; the daemon and the coordinator timestamp through it.
func Now() time.Time { return time.Now() }

// JobState is one node of the job lifecycle:
//
//	queued → running → done | failed | cancelled
//
// A drain interrupts a running job back to queued (without a terminal
// journal event), so a restarted service re-runs it; determinism makes the
// re-run equivalent. A queued job — never started, or sent back by a
// drain — can still be cancelled.
type JobState string

// Job states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state ends the job.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobRequest is the POST /v1/jobs body: a serializable scenario plus the
// seeds to replicate it over.
type JobRequest struct {
	// Spec is the scenario (sim.ScenarioSpec: preset plus overrides).
	Spec sim.ScenarioSpec `json:"spec"`
	// Seeds lists the replication seeds explicitly. Empty means
	// Replications consecutive seeds starting at the spec's seed.
	Seeds []int64 `json:"seeds,omitempty"`
	// Replications derives Seeds when they are not listed (default 1).
	Replications int `json:"replications,omitempty"`
	// DeadlineMS bounds the whole job's wall-clock runtime; an overrun
	// fails the job with a deadline error. 0 = no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// maxSeedsPerJob bounds one job's replication count; larger campaigns
// split into multiple jobs.
const maxSeedsPerJob = 4096

// Normalize validates the request and returns the resolved seed list. It
// is exported because the cluster coordinator (internal/cluster) applies
// the exact same validation to requests before sharding them, so a request
// the coordinator accepts is one every worker accepts too.
func (r *JobRequest) Normalize() ([]int64, error) {
	if err := r.Spec.Validate(); err != nil {
		return nil, err
	}
	if r.Replications < 0 {
		return nil, fmt.Errorf("replications: must be non-negative, got %d", r.Replications)
	}
	if len(r.Seeds) > 0 && r.Replications > 0 {
		return nil, fmt.Errorf("seeds and replications are mutually exclusive")
	}
	if r.DeadlineMS < 0 {
		return nil, fmt.Errorf("deadline_ms: must be non-negative, got %d", r.DeadlineMS)
	}
	seeds := r.Seeds
	if len(seeds) == 0 {
		n := r.Replications
		if n == 0 {
			n = 1
		}
		base := r.Spec.Seed
		if base == 0 {
			sc, err := r.Spec.Scenario()
			if err != nil {
				return nil, err
			}
			base = sc.Seed
		}
		seeds = sim.Seeds(base, n)
	}
	if len(seeds) > maxSeedsPerJob {
		return nil, fmt.Errorf("seeds: %d exceeds the per-job maximum %d", len(seeds), maxSeedsPerJob)
	}
	seen := make(map[int64]bool, len(seeds))
	for _, s := range seeds {
		if seen[s] {
			return nil, fmt.Errorf("seeds: duplicate seed %d", s)
		}
		seen[s] = true
	}
	return seeds, nil
}

// Job is one submitted experiment. The lifecycle fields are guarded by
// the service mutex; run is the executor's per-job state.
type Job struct {
	ID    string
	Req   JobRequest
	Seeds []int64

	state     JobState
	errMsg    string
	recovered bool

	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	totalSlots int

	run    Run
	result *JobResult

	// cancel aborts the running execution; userCancel marks a user DELETE,
	// which journals a terminal event, apart from a drain, which does not.
	cancel     func()
	userCancel bool
	// done is closed once the job will not run (again) in this process:
	// it finished, was cancelled, or a drain sent it back.
	done chan struct{}
}

// release closes done once; the caller holds the service mutex.
func (j *Job) release() {
	select {
	case <-j.done:
	default:
		close(j.done)
	}
}

// JobResult aggregates a finished (or partially finished) job, reusing the
// sweep checkpoint unit: one sim.SeedMetrics per completed seed plus the
// failed-seed list and the cross-seed summary.
type JobResult struct {
	Seeds       []sim.SeedMetrics     `json:"seeds"`
	FailedSeeds []int64               `json:"failed_seeds,omitempty"`
	Errors      []string              `json:"errors,omitempty"`
	Summary     *sim.ReplicatedResult `json:"summary,omitempty"`
}

// SeedStatus is one seed's live progress in a job status.
type SeedStatus struct {
	Seed      int64  `json:"seed"`
	SlotsDone int64  `json:"slots_done"`
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
}

// JobStatus is the API rendering of a job.
type JobStatus struct {
	ID         string           `json:"id"`
	State      JobState         `json:"state"`
	Error      string           `json:"error,omitempty"`
	Recovered  bool             `json:"recovered,omitempty"`
	Spec       sim.ScenarioSpec `json:"spec"`
	Seeds      []int64          `json:"seeds"`
	DeadlineMS int64            `json:"deadline_ms,omitempty"`
	CreatedAt  string           `json:"created_at,omitempty"`
	StartedAt  string           `json:"started_at,omitempty"`
	FinishedAt string           `json:"finished_at,omitempty"`
	TotalSlots int              `json:"total_slots"`
	Progress   []SeedStatus     `json:"progress,omitempty"`
	Result     *JobResult       `json:"result,omitempty"`
}

// status renders the job; the caller holds the service mutex.
func (j *Job) status() JobStatus {
	st := JobStatus{
		ID:         j.ID,
		State:      j.state,
		Error:      j.errMsg,
		Recovered:  j.recovered,
		Spec:       j.Req.Spec,
		Seeds:      j.Seeds,
		DeadlineMS: j.Req.DeadlineMS,
		TotalSlots: j.totalSlots,
		Result:     j.result,
	}
	if !j.createdAt.IsZero() {
		st.CreatedAt = j.createdAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.startedAt.IsZero() {
		st.StartedAt = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
	}
	st.Progress = j.run.Progress(st)
	return st
}
