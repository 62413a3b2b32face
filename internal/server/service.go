package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"greencell/internal/metrics"
)

// Service is the job service shared by the experiment daemon (Server, a
// local worker pool) and the cluster coordinator (internal/cluster, a
// worker fleet): the job table, the journal and its replay, the HTTP API,
// the lifecycle counters, and the drain choreography. What differs between
// the two — how a job executes, how its progress and stream are kept — is
// the Executor's.
//
// Every job walks the same lifecycle:
//
//	submit → queued → running → done | failed | cancelled
//	                     └──── drain ────┘ back to queued, nothing journaled
//
// Only the terminal transitions of a user's DELETE and of a finished run
// are journaled, so whatever a drain (or a crash) interrupts re-runs on
// the next start.
type Service struct {
	id   Identity
	exec Executor

	// mu guards the job table and every Job's lifecycle fields. It is the
	// executor's mutex too: the executor passes it in and guards its own
	// per-job state with it, so one lock orders the whole service.
	mu       *sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for GET /v1/jobs
	nextID   int
	journal  *journal
	draining bool

	// reg holds the serving-level metrics; guarded by mu (the registry
	// itself is not concurrency-safe).
	reg        *metrics.Registry
	cSubmitted *metrics.Counter
	cDone      *metrics.Counter
	cFailed    *metrics.Counter
	cCancelled *metrics.Counter
	cRecovered *metrics.Counter
	gQueued    *metrics.Gauge
	gRunning   *metrics.Gauge

	// runCtx parents every job's context; cancelled once a drain has
	// settled.
	runCtx    context.Context
	runCancel context.CancelFunc
}

// Identity names a Service in job IDs, logs, metrics and API errors: the
// strings that tell the daemon and the coordinator apart on the wire.
type Identity struct {
	Program  string // log prefix, e.g. "greencelld"
	IDPrefix string // job-ID prefix, e.g. "job-"
	Metrics  string // lifecycle-counter prefix, e.g. "greencelld_"
	// QueuedGauge and RunningGauge name the gauges of queued and executing
	// jobs; an empty name leaves that gauge unexported.
	QueuedGauge, RunningGauge string
	Draining                  string // 503 message while draining
	Full                      string // 503 message when the executor is at capacity
	Requeued                  string // error of a running job a drain sent back to queued
}

// Executor is what a Service delegates: starting jobs and keeping their
// per-job state. The Service calls NewRun, Full and Enqueue with its mutex
// held.
type Executor interface {
	// NewRun builds a new job's executor-side state.
	NewRun(j *Job) (Run, error)
	// Full reports whether one more job would exceed the executor's
	// capacity, given the number of queued and running jobs.
	Full(active int) bool
	// Enqueue hands a queued job to the executor, which later calls
	// Service.RunJob for it from a goroutine of its own. It must not block.
	Enqueue(j *Job)
	// Replay hands the executor one of its own journal events (any
	// non-lifecycle event) during recovery, in job-ID order.
	Replay(e JournalEntry)
	// Routes registers executor-specific HTTP routes.
	Routes(mux *http.ServeMux)
	// Stop waits for the executor's goroutines once a drain has settled
	// every running job.
	Stop()
}

// Run is an executor's per-job state.
type Run interface {
	// Execute runs the job until it ends or ctx is done. A nil error means
	// every seed succeeded; a run cut short by ctx returns an error
	// wrapping ctx.Err().
	Execute(ctx context.Context) (*JobResult, error)
	// Progress renders per-seed progress for st; the caller holds the
	// service mutex.
	Progress(st JobStatus) []SeedStatus
	// Stream copies the job's metrics stream into w, following it live
	// until the job ends or ctx is done.
	Stream(ctx context.Context, w io.Writer, fromSlot int) error
	// Close ends the stream, releasing its followers. Idempotent; the
	// caller holds the service mutex.
	Close()
	// Restore turns a job recovered in a terminal state into read-only
	// history and returns whatever of its result survived the restart.
	Restore() *JobResult
}

// NewService builds an empty service over exec, guarded by mu (which the
// executor shares). Call Open before serving.
func NewService(mu *sync.Mutex, id Identity, exec Executor) *Service {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		id:        id,
		exec:      exec,
		mu:        mu,
		jobs:      make(map[string]*Job),
		reg:       metrics.NewRegistry(),
		runCtx:    ctx,
		runCancel: cancel,
	}
	s.cSubmitted = s.reg.Counter(id.Metrics+"jobs_submitted_total", "jobs", "jobs accepted over the API or recovered from the journal")
	s.cDone = s.reg.Counter(id.Metrics+"jobs_done_total", "jobs", "jobs finished with every seed successful")
	s.cFailed = s.reg.Counter(id.Metrics+"jobs_failed_total", "jobs", "jobs finished with at least one failed seed")
	s.cCancelled = s.reg.Counter(id.Metrics+"jobs_cancelled_total", "jobs", "jobs cancelled by DELETE")
	s.cRecovered = s.reg.Counter(id.Metrics+"jobs_recovered_total", "jobs", "interrupted jobs re-queued at startup from the journal")
	s.gQueued = s.gauge(id.QueuedGauge, "jobs waiting to start")
	s.gRunning = s.gauge(id.RunningGauge, "jobs currently executing")
	return s
}

func (s *Service) gauge(name, help string) *metrics.Gauge {
	if name == "" {
		return new(metrics.Gauge)
	}
	return s.reg.Gauge(name, "jobs", help)
}

// bump moves a job-count gauge by d.
func bump(g *metrics.Gauge, d float64) { g.Set(g.Value() + d) }

func (s *Service) warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", s.id.Program, fmt.Sprintf(format, args...))
}

// Open replays the journal at path into the job table and opens it for
// appending; an empty path disables journalling (jobs then do not survive
// a restart). Jobs whose last lifecycle event is "submitted" or "started"
// are returned, queued, for the caller to hand to its executor. Open runs
// before the service is shared; on error the service is unusable.
func (s *Service) Open(path string) ([]*Job, error) {
	if path == "" {
		return nil, nil
	}
	requeue, err := s.recover(path)
	if err == nil {
		s.journal, err = openJournal(path)
	}
	if err != nil {
		s.runCancel()
		return nil, err
	}
	return requeue, nil
}

// recover folds the journal per job: the request, the last lifecycle
// event and its error. Executor events go to Executor.Replay; terminal
// jobs become history with their error message; the rest re-queue.
func (s *Service) recover(path string) ([]*Job, error) {
	entries, torn, err := LoadJournal(path)
	if err != nil {
		return nil, err
	}
	if torn != 0 {
		s.warnf("journal %s: dropping torn final line %d (interrupted write); its event is lost", path, torn)
	}
	type folded struct {
		req   *JobRequest
		last  string
		errS  string
		extra []JournalEntry
	}
	byID := make(map[string]*folded)
	var ids []string
	for _, e := range entries {
		f := byID[e.ID]
		if f == nil {
			f = &folded{}
			byID[e.ID] = f
			ids = append(ids, e.ID)
		}
		if n := s.jobIDNum(e.ID); n > s.nextID {
			s.nextID = n
		}
		if !lifecycleEvent(e.Event) {
			f.extra = append(f.extra, e)
			continue
		}
		if e.Req != nil {
			f.req = e.Req
		}
		f.last, f.errS = e.Event, e.Error
	}
	sort.Slice(ids, func(a, b int) bool { return s.jobIDNum(ids[a]) < s.jobIDNum(ids[b]) })

	var requeue []*Job
	for _, id := range ids {
		f := byID[id]
		for _, e := range f.extra {
			s.exec.Replay(e)
		}
		if f.req == nil {
			s.warnf("journal: job %s has no submitted event; skipping", id)
			continue
		}
		seeds, slots, err := validate(*f.req)
		var j *Job
		if err == nil {
			j, err = s.newJob(id, *f.req, seeds, slots)
		}
		if err != nil {
			s.warnf("journal: job %s no longer validates (%v); skipping", id, err)
			continue
		}
		j.recovered = true
		s.jobs[id] = j
		s.order = append(s.order, id)
		if state := JobState(f.last); state.Terminal() {
			j.state, j.errMsg = state, f.errS
			j.result = j.run.Restore()
			j.run.Close()
			close(j.done)
			continue
		}
		s.cSubmitted.Inc()
		s.cRecovered.Inc()
		bump(s.gQueued, 1)
		requeue = append(requeue, j)
	}
	return requeue, nil
}

// validate resolves a request's seeds and horizon; failures are 400s.
func validate(req JobRequest) (seeds []int64, slots int, err error) {
	seeds, err = req.Normalize()
	if err != nil {
		return nil, 0, &apiError{code: 400, msg: err.Error()}
	}
	sc, err := req.Spec.Scenario()
	if err != nil {
		return nil, 0, &apiError{code: 400, msg: err.Error()}
	}
	return seeds, sc.Slots, nil
}

// newJob builds a queued job with its executor-side state.
func (s *Service) newJob(id string, req JobRequest, seeds []int64, slots int) (*Job, error) {
	j := &Job{
		ID:         id,
		Req:        req,
		Seeds:      seeds,
		state:      JobQueued,
		createdAt:  Now(),
		totalSlots: slots,
		done:       make(chan struct{}),
	}
	var err error
	if j.run, err = s.exec.NewRun(j); err != nil {
		return nil, err
	}
	return j, nil
}

// Submit validates, journals, and enqueues a job, returning its status.
func (s *Service) Submit(req JobRequest) (JobStatus, error) {
	seeds, slots, err := validate(req)
	if err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, &apiError{code: 503, msg: s.id.Draining}
	}
	if s.exec.Full(int(s.gQueued.Value() + s.gRunning.Value())) {
		// Retry-After: capacity frees at job granularity, so a short
		// client-side pause is the right unit; the submit clients honor it
		// inside their shared backoff helper.
		return JobStatus{}, &apiError{code: 503, msg: s.id.Full, retryAfter: 1}
	}
	s.nextID++
	id := s.jobID(s.nextID)
	j, err := s.newJob(id, req, seeds, slots)
	if err != nil {
		return JobStatus{}, err
	}
	if err := s.journal.append(JournalEntry{Event: "submitted", ID: id, Req: &req}); err != nil {
		return JobStatus{}, fmt.Errorf("journal: %w", err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.cSubmitted.Inc()
	bump(s.gQueued, 1)
	s.exec.Enqueue(j)
	return j.status(), nil
}

// Job returns one job's status.
func (s *Service) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, &apiError{code: 404, msg: fmt.Sprintf("no such job %q", id)}
	}
	return j.status(), nil
}

// Jobs returns every job's status in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel stops a job on behalf of a user DELETE and journals the terminal
// event. A queued job — never started, or sent back by a drain — is
// cancelled on the spot; a running one is interrupted and waited for.
// Cancelling a terminal job reports its unchanged status.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, &apiError{code: 404, msg: fmt.Sprintf("no such job %q", id)}
	}
	if j.state == JobRunning {
		j.userCancel = true
		cancel, done := j.cancel, j.done
		s.mu.Unlock()
		cancel()
		<-done // finish settles the state
		s.mu.Lock()
	}
	if j.state == JobQueued {
		j.state, j.errMsg, j.userCancel = JobCancelled, "cancelled", true
		j.finishedAt = Now()
		s.cCancelled.Inc()
		bump(s.gQueued, -1)
		if err := s.journal.append(JournalEntry{Event: "cancelled", ID: id, Error: j.errMsg}); err != nil {
			s.warnf("journal: %v", err)
		}
		// The executor discards the job if it still comes up for a start.
		j.run.Close()
		j.release()
	}
	st := j.status()
	s.mu.Unlock()
	return st, nil
}

// Stream copies the job's metrics stream into w from fromSlot on,
// following live output until the job ends or ctx is cancelled.
func (s *Service) Stream(ctx context.Context, id string, w io.Writer, fromSlot int) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return &apiError{code: 404, msg: fmt.Sprintf("no such job %q", id)}
	}
	return j.run.Stream(ctx, w, fromSlot)
}

// RunJob starts a queued job and executes it to the end; executors call
// it from a goroutine of their own. A job cancelled while queued, and any
// job once a drain has begun, is left as it is.
func (s *Service) RunJob(j *Job) {
	s.mu.Lock()
	if j.state != JobQueued || s.draining {
		s.mu.Unlock()
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Req.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(s.runCtx, time.Duration(j.Req.DeadlineMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(s.runCtx)
	}
	defer cancel()
	j.state = JobRunning
	j.startedAt = Now()
	j.cancel = cancel
	err := s.journal.append(JournalEntry{Event: "started", ID: j.ID})
	bump(s.gQueued, -1)
	bump(s.gRunning, 1)
	s.mu.Unlock()
	if err != nil {
		s.warnf("journal: %v", err)
	}

	res, runErr := j.run.Execute(ctx)
	s.finish(j, res, runErr)
}

// finish settles an execution: done, failed (a deadline overrun
// included), cancelled by the user, or — interrupted by a drain — back to
// queued without a terminal journal event, so the last journaled event
// stays "started" and the next instance re-runs the job.
func (s *Service) finish(j *Job, res *JobResult, runErr error) {
	s.mu.Lock()
	j.result = res
	j.finishedAt = Now()
	event := ""
	interrupted := errors.Is(runErr, context.Canceled)
	switch {
	case interrupted && j.userCancel:
		j.state, j.errMsg, event = JobCancelled, "cancelled", "cancelled"
		s.cCancelled.Inc()
	case interrupted:
		j.state, j.errMsg = JobQueued, s.id.Requeued
		bump(s.gQueued, 1)
	case runErr != nil:
		j.state, j.errMsg, event = JobFailed, runErr.Error(), "failed"
		s.cFailed.Inc()
	default:
		j.state, event = JobDone, "done"
		s.cDone.Inc()
	}
	bump(s.gRunning, -1)
	var err error
	if event != "" {
		err = s.journal.append(JournalEntry{Event: event, ID: j.ID, Error: j.errMsg})
	}
	j.run.Close()
	j.release()
	s.mu.Unlock()
	if err != nil {
		s.warnf("journal: %v", err)
	}
}

// Journal appends an executor event (the coordinator's "cell") to the
// journal; the caller holds the service mutex.
func (s *Service) Journal(e JournalEntry) error { return s.journal.append(e) }

// Registry exposes the serving metrics; executors register their own
// counters on it and update them under the service mutex.
func (s *Service) Registry() *metrics.Registry { return s.reg }

// CounterValues snapshots every counter under the service mutex
// (metrics.Counter itself is not thread-safe), so callers can read them
// race-free while jobs run.
func (s *Service) CounterValues() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.CounterValues()
}

// WriteMetrics renders the serving registry in Prometheus text format.
func (s *Service) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return metrics.WritePrometheus(w, s.reg)
}

// Draining reports whether a drain has begun (the /readyz signal).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the service: new submissions get 503, queued
// jobs stay journaled for the next instance, and running jobs get until
// ctx is done to finish before being interrupted back to queued (without
// a terminal journal event, so they also recover on restart). Drain then
// stops the executor and closes the journal; lifecycle changes after it
// (a late DELETE) are no longer journaled.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("%s: already draining", s.id.Program)
	}
	s.draining = true
	var running []*Job
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == JobRunning {
			running = append(running, j)
		}
	}
	s.mu.Unlock()

	// Grace period: let running jobs finish on their own.
	for _, j := range running {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
	}

	// Interrupt whatever is left; without a user's DELETE, finish sends
	// it back to queued and journals nothing.
	s.mu.Lock()
	var cancels []func()
	for _, j := range running {
		if j.state == JobRunning {
			cancels = append(cancels, j.cancel)
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	// Each job was just cancelled, so these waits are bounded by the jobs'
	// own unwinding; cutting them short on ctx expiry would return while
	// the drain bookkeeping is mid-write. The ctx bounds the grace period
	// above, not the teardown.
	//lint:allow ctxflow -- bounded post-cancel teardown; abandoning it would race the journal
	for _, j := range running {
		<-j.done
	}

	s.exec.Stop()
	s.runCancel()

	// Unblock the followers of jobs that never ran (they stay journaled
	// as submitted and recover on the next start).
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		if j := s.jobs[id]; !j.state.Terminal() {
			j.run.Close()
		}
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// Close stops the service immediately: Drain with no grace period.
func (s *Service) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Drain(ctx)
}
