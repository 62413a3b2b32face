// Package cluster is the fault-tolerant coordinator over a fleet of
// greencelld workers: the "wide sweeps at cluster throughput with
// exactly-once semantics" serving layer (ROADMAP item 3, docs/CLUSTER.md).
//
// A job — the same JobRequest the daemon accepts — is sharded seed-by-seed
// across the worker pool: every (spec, seed) cell becomes one single-seed
// daemon job held under a lease with a deadline. The coordinator heartbeats
// each worker's /readyz, circuit-breaks flapping ones, retries every worker
// RPC with jittered exponential backoff and per-attempt timeouts, and
// re-dispatches the cells of expired leases and lost workers to healthy
// peers. Completed cells land in a content-addressed cache keyed by
// sha256(canonical spec, seed), so re-dispatched or resubmitted cells are
// exactly-once and free. The job table, journal, HTTP API and drain are
// the shared job service of internal/server; the Coordinator is its fleet
// executor, journaling each finished cell so a restarted coordinator
// resumes in-flight jobs from their last finished seed.
//
// Determinism is inherited from the daemon contract: a cell's stream is a
// pure function of (spec, seed), so the coordinator's merged, seed-ordered
// stream is byte-identical (after timing canonicalization) to a local
// sim.RunSeeds run — no matter which workers ran which cells, how many
// leases expired, or how often the chaos transport dropped an RPC. The
// chaos tests and the cluster-smoke gate enforce exactly this.
package cluster

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"greencell/internal/metrics"
	"greencell/internal/server"
	"greencell/internal/sim"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Workers are the base URLs of the greencelld fleet
	// (e.g. http://127.0.0.1:8081). The pool may be empty — jobs then
	// complete only from cache — but is normally ≥ 1.
	Workers []string
	// JournalPath is the coordinator's JSONL lifecycle journal; empty
	// disables journalling (jobs and the cache index then do not survive a
	// restart).
	JournalPath string
	// CacheDir is the content-addressed stream store. Empty keeps blobs in
	// memory: the cache then serves resubmits within this process only.
	CacheDir string
	// CacheMaxBytes caps the total blob bytes the cache holds; inserting
	// past the cap evicts least-recently-used cells (blob and index), which
	// then simply re-run on their next lookup. 0 leaves the store uncapped.
	CacheMaxBytes int64
	// QueueDepth bounds concurrently tracked non-terminal jobs; submits
	// beyond it get 503 with a Retry-After. Default 256.
	QueueDepth int
	// LeaseTimeout bounds one cell from dispatch to completion; an expired
	// lease is cancelled and its seed re-dispatched. It is also installed
	// as the worker-side job deadline, so an orphaned cell self-aborts.
	// Default 2m.
	LeaseTimeout time.Duration
	// PollInterval paces the dispatcher: lease status polls and dispatch
	// scans. Default 100ms.
	PollInterval time.Duration
	// HeartbeatInterval paces the per-worker /readyz probes; Timeout
	// bounds each probe. Defaults 1s / 1s.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// BreakerThreshold consecutive failures (probes or RPCs) evict a
	// worker for BreakerCooldown. Defaults 3 / 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxAttempts bounds the leases placed for one cell before it is
	// declared failed. Default 4.
	MaxAttempts int
	// PerWorkerInflight bounds the leases simultaneously placed on one
	// worker (one running + the rest queued there). Default 2.
	PerWorkerInflight int
	// RPC is the worker RPC retry policy; nil uses defaults with a 10s
	// per-attempt timeout.
	RPC *RetryPolicy
	// Transport overrides the HTTP transport for worker calls — the chaos
	// harness injects FaultTransport here. Nil uses the default transport.
	Transport http.RoundTripper
}

func (cfg Config) defaulted() Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.PerWorkerInflight <= 0 {
		cfg.PerWorkerInflight = 2
	}
	if cfg.RPC == nil {
		cfg.RPC = &RetryPolicy{AttemptTimeout: 10 * time.Second}
	}
	return cfg
}

// cellState is one seed's lifecycle inside a job:
//
//	pending → leased → done | failed
//	            ↑________|           (lease expiry / worker loss re-queues)
type cellState string

const (
	cellPending cellState = "pending"
	cellLeased  cellState = "leased"
	cellDone    cellState = "done"
	cellFailed  cellState = "failed"
)

// cell is one (spec, seed) replication: the unit of dispatch, recovery,
// and caching. Guarded by the coordinator mutex.
type cell struct {
	seed int64
	key  string

	state    cellState
	attempts int       // leases placed so far
	workerID int       // current/last worker, -1 = none
	wjob     string    // worker-side job ID while leased
	deadline time.Time // lease expiry
	nextPoll time.Time

	metrics   sim.SeedMetrics
	fromCache bool
	errMsg    string
}

// Job is one coordinated experiment's fleet-side state — a cell per seed
// and the merged stream — and the Coordinator's server.Run. cells are
// guarded by the coordinator mutex; merge is internally locked.
type Job struct {
	*server.Job
	c     *Coordinator
	cells map[int64]*cell
	merge *mergeLog
}

// journalEntry is the shared job journal's record; the coordinator adds
// the "cell" event.
type journalEntry = server.JournalEntry

// Coordinator is the job service over a worker fleet: it owns the worker
// pool and the content-addressed cache, and executes the jobs of its
// embedded server.Service. Create with New, serve Handler, stop with
// Drain (graceful) or Close.
type Coordinator struct {
	*server.Service

	cfg     Config
	hc      *http.Client
	workers []*worker
	cache   *cache

	// mu is the service mutex: it guards the job table and every Job's
	// cells.
	mu sync.Mutex

	cCellsDone     *metrics.Counter
	cCellsFailed   *metrics.Counter
	cDispatches    *metrics.Counter
	cRedispatches  *metrics.Counter
	cLeaseExpiries *metrics.Counter
	cCacheHits     *metrics.Counter
	cCacheEvicts   *metrics.Counter
	cRPCRetries    *metrics.Counter
	cEvictions     *metrics.Counter

	// runCtx bounds the heartbeat loops; wg counts them and the per-job
	// dispatcher goroutines.
	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
}

var coordIdentity = server.Identity{
	Program:      "greencell-coord",
	IDPrefix:     "cjob-",
	Metrics:      "coord_",
	RunningGauge: "coord_jobs_active",
	Draining:     "coordinator is draining; not accepting jobs",
	Full:         "job table is full",
	Requeued:     "interrupted by shutdown drain; will resume on restart",
}

// New builds a coordinator, replays its journal (admitting completed cells
// into the cache index and re-running every job whose last lifecycle event
// was non-terminal), and starts the worker heartbeat loops.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.defaulted()
	cch, err := newCache(cfg.CacheDir, cfg.CacheMaxBytes)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:       cfg,
		hc:        &http.Client{Transport: cfg.Transport},
		cache:     cch,
		runCtx:    ctx,
		runCancel: cancel,
	}
	c.Service = server.NewService(&c.mu, coordIdentity, fleet{c})
	for i, base := range cfg.Workers {
		c.workers = append(c.workers, newWorker(i, base))
	}

	reg := c.Registry()
	c.cCellsDone = reg.Counter("coord_cells_done_total", "cells", "completed (spec, seed) cells, cache hits included")
	c.cCellsFailed = reg.Counter("coord_cells_failed_total", "cells", "cells failed after exhausting their lease attempts")
	c.cDispatches = reg.Counter("coord_dispatches_total", "leases", "leases placed on workers (single-seed daemon jobs)")
	c.cRedispatches = reg.Counter("coord_redispatches_total", "leases", "leases re-placed after a lease expiry, worker loss, or worker-side interruption")
	c.cLeaseExpiries = reg.Counter("coord_lease_expiries_total", "leases", "leases that hit their deadline before the cell completed")
	c.cCacheHits = reg.Counter("coord_cache_hits_total", "cells", "cells served from the content-addressed result cache")
	c.cCacheEvicts = reg.Counter("coord_cache_evictions_total", "cells", "cells evicted from the result cache by the size cap (LRU)")
	c.cRPCRetries = reg.Counter("coord_rpc_retries_total", "calls", "worker RPC attempts retried after a transient failure")
	c.cEvictions = reg.Counter("coord_worker_evictions_total", "evictions", "circuit-breaker evictions of unhealthy workers")

	resume, err := c.Open(cfg.JournalPath)
	if err != nil {
		cancel()
		return nil, err
	}
	for _, w := range c.workers {
		c.wg.Add(1)
		go c.heartbeatLoop(w)
	}
	for _, j := range resume {
		fleet{c}.Enqueue(j)
	}
	return c, nil
}

// fleet is the Coordinator's server.Executor: one dispatcher goroutine
// per job, sharding its seeds across the worker pool.
type fleet struct{ *Coordinator }

// NewRun builds a job's cells, keys precomputed.
func (f fleet) NewRun(sj *server.Job) (server.Run, error) {
	j := &Job{Job: sj, c: f.Coordinator, cells: make(map[int64]*cell, len(sj.Seeds)), merge: newMergeLog(sj.Seeds)}
	for _, s := range sj.Seeds {
		key, err := CellKey(sj.Req.Spec, s)
		if err != nil {
			return nil, err
		}
		j.cells[s] = &cell{seed: s, key: key, state: cellPending, workerID: -1}
	}
	return j, nil
}

// Full bounds the jobs tracked and non-terminal.
func (f fleet) Full(active int) bool { return active >= f.cfg.QueueDepth }

// Enqueue launches the job's dispatcher.
func (f fleet) Enqueue(j *server.Job) {
	f.wg.Add(1)
	go f.dispatch(j)
}

func (c *Coordinator) dispatch(j *server.Job) {
	defer c.wg.Done()
	c.RunJob(j)
}

// Replay admits a journaled cell into the cache index, whatever its job's
// fate.
func (f fleet) Replay(e journalEntry) {
	if e.Event == "cell" && e.Metrics != nil && e.Key != "" {
		if n := f.cache.admit(e.Key, *e.Metrics); n > 0 {
			f.cCacheEvicts.Add(float64(n))
		}
	}
}

// Routes adds GET /v1/workers: the pool's health (breaker state,
// inflight leases) and the cache size.
func (f fleet) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]any{
			"workers":     f.WorkerStatuses(),
			"cache_cells": f.CacheLen(),
		})
	})
}

// Stop ends the heartbeat loops and waits for them and the dispatchers.
func (f fleet) Stop() {
	f.runCancel()
	f.wg.Wait()
}

// Execute drives the job's cells to a terminal state (or to interruption
// by ctx).
func (j *Job) Execute(ctx context.Context) (*server.JobResult, error) {
	return j.c.runJob(ctx, j)
}

// Progress renders each cell; the caller holds the coordinator mutex.
func (j *Job) Progress(st server.JobStatus) []server.SeedStatus {
	out := make([]server.SeedStatus, 0, len(j.Seeds))
	for _, seed := range j.Seeds {
		cl := j.cells[seed]
		ss := server.SeedStatus{Seed: seed}
		switch cl.state {
		case cellDone:
			ss.State = "done"
			ss.SlotsDone = int64(st.TotalSlots)
		case cellFailed:
			ss.State, ss.Error = "failed", cl.errMsg
		case cellLeased:
			ss.State = "running"
		default:
			if st.State.Terminal() {
				ss.State = string(st.State)
			} else {
				ss.State = "pending"
			}
		}
		out = append(out, ss)
	}
	return out
}

// Stream writes the merged, seed-ordered stream; a merged stream has no
// single slot axis, so fromSlot is ignored.
func (j *Job) Stream(ctx context.Context, w io.Writer, fromSlot int) error {
	return j.merge.stream(ctx, w)
}

// Close ends the merged stream.
func (j *Job) Close() { j.merge.close() }

// Restore rebuilds a terminal job's history from whatever the cache still
// serves.
func (j *Job) Restore() *server.JobResult {
	for _, seed := range j.Seeds {
		cl := j.cells[seed]
		if m, blob, ok := j.c.cache.get(cl.key); ok {
			cl.state, cl.metrics, cl.fromCache = cellDone, m, true
			j.merge.put(seed, blob)
		}
	}
	return j.c.buildResult(j)
}

// Stream writes the job's merged, seed-ordered metrics stream into w,
// following live completions until the job ends or ctx is cancelled.
func (c *Coordinator) Stream(ctx context.Context, id string, w io.Writer) error {
	return c.Service.Stream(ctx, id, w, 0)
}

// WorkerStatuses reports the pool, in registration order.
func (c *Coordinator) WorkerStatuses() []WorkerStatus {
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w.status())
	}
	return out
}

// CacheLen reports the number of indexed cache cells.
func (c *Coordinator) CacheLen() int { return c.cache.Len() }

// buildResult folds the job's cells into the daemon-shaped result; the
// caller holds c.mu (or owns the job exclusively during recovery).
func (c *Coordinator) buildResult(j *Job) *server.JobResult {
	res := &server.JobResult{}
	for _, seed := range j.Seeds {
		cl := j.cells[seed]
		switch cl.state {
		case cellDone:
			res.Seeds = append(res.Seeds, cl.metrics)
		case cellFailed:
			res.FailedSeeds = append(res.FailedSeeds, seed)
			msg := cl.errMsg
			if msg == "" {
				msg = "failed"
			}
			res.Errors = append(res.Errors, msg)
		default:
			// Non-terminal cell in a finalized job: interrupted.
			res.FailedSeeds = append(res.FailedSeeds, seed)
			res.Errors = append(res.Errors, "interrupted")
		}
	}
	sort.Slice(res.Seeds, func(a, b int) bool { return res.Seeds[a].Seed < res.Seeds[b].Seed })
	if len(res.Seeds) > 0 {
		res.Summary = sim.SummarizeSeedMetrics(res.Seeds)
	}
	return res
}
