// Package server is the job service behind cmd/greencelld and
// cmd/greencell-coord: an HTTP/JSON job orchestrator over the crash-proof
// replication machinery of internal/sim. A job is a serializable scenario
// spec plus a seed list. The Service owns what both binaries share — the
// job table, the JSONL journal that lets a restarted process recover
// interrupted work, the HTTP API, the lifecycle metrics, and the graceful
// drain — and an Executor runs the jobs: Server, here, on a local worker
// pool; internal/cluster's Coordinator across a fleet of Servers.
//
// Determinism is the core contract: a job's result is a pure function of
// (spec, seeds). The serve-smoke gate exercises it end to end by diffing a
// streamed job against the golden fixture produced by sim.Run directly.
// See docs/SERVER.md for the API reference and lifecycle details.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"greencell/internal/core"
	"greencell/internal/metrics"
	"greencell/internal/sim"
)

// Config parameterizes a Server.
type Config struct {
	// JournalPath is the JSONL job journal; empty disables journalling
	// (jobs then do not survive a restart).
	JournalPath string
	// Workers is the number of jobs run concurrently (each job additionally
	// parallelizes across its seeds, so 1 — the default — already saturates
	// the machine for multi-seed jobs).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; submits
	// beyond it are rejected with 503. Default 256. Recovery ignores the
	// bound: every recoverable journaled job is re-queued.
	QueueDepth int
}

// Server is the experiment daemon: the job Service over a local worker
// pool, streaming each job's metrics live (the docs/METRICS.md schema,
// byte-identical to a local run). Create with New, serve its Handler, and
// stop with Drain (graceful) or Close.
type Server struct {
	*Service

	queue chan *Job
	wg    sync.WaitGroup

	cSeedsComplete *metrics.Counter
	cSeedsFailed   *metrics.Counter
}

var daemonIdentity = Identity{
	Program:      "greencelld",
	IDPrefix:     "job-",
	Metrics:      "greencelld_",
	QueuedGauge:  "greencelld_jobs_queued",
	RunningGauge: "greencelld_jobs_running",
	Draining:     "server is draining; not accepting jobs",
	Full:         "job queue is full",
	Requeued:     "interrupted by shutdown drain; will re-run on restart",
}

// New builds a server, replays the journal (re-queueing every job whose
// last event was non-terminal), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	s := &Server{}
	s.Service = NewService(new(sync.Mutex), daemonIdentity, pool{s})
	s.cSeedsComplete = s.reg.Counter("greencelld_seeds_completed_total", "seeds", "seed replications finished successfully")
	s.cSeedsFailed = s.reg.Counter("greencelld_seeds_failed_total", "seeds", "seed replications that failed or were interrupted")

	recovered, err := s.Open(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	// Size the queue so recovery can never block on its own channel.
	s.queue = make(chan *Job, max(cfg.QueueDepth, len(recovered)))
	for _, j := range recovered {
		s.queue <- j
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.RunJob(j)
	}
}

// pool is the Server's Executor: a bounded FIFO queue drained by the
// worker pool.
type pool struct{ *Server }

func (p pool) NewRun(j *Job) (Run, error) {
	r := &localRun{s: p.Server, job: j, log: newRecordLog(), bySeed: make(map[int64]*seedProgress, len(j.Seeds))}
	for _, seed := range j.Seeds {
		sp := &seedProgress{seed: seed}
		r.progress = append(r.progress, sp)
		r.bySeed[seed] = sp
	}
	return r, nil
}

// Full bounds the queued jobs only; the running ones hold workers.
func (p pool) Full(int) bool { return len(p.queue) == cap(p.queue) }

// Enqueue cannot block: Submit checked Full under the same mutex, and
// only Submit sends.
func (p pool) Enqueue(j *Job) { p.queue <- j }

func (pool) Replay(JournalEntry) {}

func (pool) Routes(*http.ServeMux) {}

func (p pool) Stop() {
	close(p.queue)
	p.wg.Wait()
}

// seedProgress is one seed's live slot counter, advanced lock-free from
// the replication's SlotHook and read by status handlers.
type seedProgress struct {
	seed      int64
	slotsDone atomic.Int64
}

// localRun is a daemon job's executor state: per-seed progress and the
// live metrics stream of its first seed.
type localRun struct {
	s        *Server
	job      *Job
	progress []*seedProgress
	bySeed   map[int64]*seedProgress
	// log is nil only for jobs recovered in a terminal state (streams are
	// not journaled).
	log *recordLog
}

// Execute runs every seed of the job, streams the first seed's metrics,
// and aggregates the outcomes.
func (r *localRun) Execute(ctx context.Context) (*JobResult, error) {
	j := r.job
	sc, err := j.Req.Spec.Scenario()
	if err != nil {
		// Validated at submit; reaching here means the spec layer changed
		// under us. Fail the job rather than panic.
		return nil, fmt.Errorf("materializing spec: %w", err)
	}

	// The first seed is the streamed one: its run carries a Recorder whose
	// output is byte-identical to `greencellsim -metrics` on the same
	// scenario (the serve-smoke contract). Other seeds run bare, with only
	// the lock-free progress hook.
	streamSeed := j.Seeds[0]
	header := sc
	header.Seed = streamSeed
	rec := sim.NewRecorder(r.log, sim.HeaderFor(header, j.Req.Spec.Label()))
	prepare := func(seed int64, sc *sim.Scenario) {
		p := r.bySeed[seed]
		sc.SlotHook = func(sr *core.SlotResult) { p.slotsDone.Add(1) }
		if seed == streamSeed {
			rec.Attach(sc, false)
		}
	}

	outs := sim.RunSeedsPrepared(ctx, sc, j.Seeds, prepare)
	if err := rec.Close(); err != nil && !errors.Is(err, errLogClosed) {
		fmt.Fprintf(os.Stderr, "greencelld: job %s: recorder: %v\n", j.ID, err)
	}

	res := &JobResult{}
	for _, o := range outs {
		if o.Err != nil {
			res.FailedSeeds = append(res.FailedSeeds, o.Seed)
			res.Errors = append(res.Errors, o.Err.Error())
			continue
		}
		res.Seeds = append(res.Seeds, sim.MetricsOf(o.Seed, o.Result))
	}
	if len(res.Seeds) > 0 {
		res.Summary = sim.SummarizeSeedMetrics(res.Seeds)
	}

	var runErr error
	if len(res.FailedSeeds) > 0 {
		runErr = fmt.Errorf("%d of %d seeds failed: %s", len(res.FailedSeeds), len(j.Seeds), res.Errors[0])
		if ctx.Err() != nil {
			runErr = fmt.Errorf("%d of %d seeds interrupted: %w", len(res.FailedSeeds), len(j.Seeds), ctx.Err())
		}
	}

	// Count the seeds, and aggregate the streamed seed's run counters
	// under a sim_ prefix (histogram quantiles do not sum and stay in the
	// stream summary).
	r.s.mu.Lock()
	r.s.cSeedsComplete.Add(float64(len(res.Seeds)))
	r.s.cSeedsFailed.Add(float64(len(res.FailedSeeds)))
	rec.Registry().EachCounter(func(name, unit, help string, v float64) {
		r.s.reg.Counter("sim_"+name, unit, help).Add(v)
	})
	r.s.mu.Unlock()
	return res, runErr
}

func (r *localRun) Progress(st JobStatus) []SeedStatus {
	failed := make(map[int64]string)
	if st.Result != nil {
		for i, s := range st.Result.FailedSeeds {
			msg := "failed"
			if i < len(st.Result.Errors) {
				msg = st.Result.Errors[i]
			}
			failed[s] = msg
		}
	}
	out := make([]SeedStatus, 0, len(r.progress))
	for _, p := range r.progress {
		ss := SeedStatus{Seed: p.seed, SlotsDone: p.slotsDone.Load()}
		if msg, ok := failed[p.seed]; ok {
			ss.State, ss.Error = "failed", msg
		} else if st.Result != nil || int(ss.SlotsDone) >= st.TotalSlots {
			ss.State = "done"
		} else if st.State.Terminal() {
			// Recovered terminal job: no per-seed record survived the
			// restart, so the seed inherits the job's state.
			ss.State = string(st.State)
		} else if ss.SlotsDone > 0 {
			ss.State = "running"
		} else {
			ss.State = "pending"
		}
		out = append(out, ss)
	}
	return out
}

func (r *localRun) Stream(ctx context.Context, w io.Writer, fromSlot int) error {
	if r.log == nil {
		return &apiError{code: 410, msg: fmt.Sprintf("job %q predates this daemon instance; its stream was not journaled", r.job.ID)}
	}
	return r.log.stream(ctx, w, fromSlot)
}

func (r *localRun) Close() {
	if r.log != nil {
		r.log.end()
	}
}

// Restore drops the stream: it was not journaled, so a pre-restart job's
// metrics endpoint answers 410.
func (r *localRun) Restore() *JobResult {
	r.log = nil
	return nil
}
