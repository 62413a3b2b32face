package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"greencell/internal/cluster"
	"greencell/internal/server"
	"greencell/internal/sim"
)

const (
	// fleetWorkers is the fleet size: with one closed-loop client it keeps
	// at most two simulations running on a two-core machine.
	fleetWorkers = 2
	// fleetSetupReps is how many fleets a run starts; each but the last is
	// torn down at once, and setup_s is their median.
	fleetSetupReps = 11
)

// fleet is one in-process deployment: fleetWorkers greencelld servers and
// a coordinator, each behind its own loopback HTTP server.
type fleet struct {
	dir        string
	workers    []*server.Server
	workerURLs []string
	coord      *cluster.Coordinator
	coordURL   string

	servers []*loopback
	// coordTr carries the coordinator's worker RPCs; client carries the
	// benchmark's own requests. Both are closed with the fleet.
	coordTr *http.Transport
	client  *http.Client
}

// startFleet starts a fleet with the daemons' default knobs (journals
// on, in-memory cache, 100 ms dispatcher tick, two leases per worker, one
// job at a time per worker) and returns once every member answers
// /readyz with 200.
func startFleet(dir string, pr *probe) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := http.DefaultTransport.(*http.Transport)
	f := &fleet{dir: dir, coordTr: base.Clone(), client: &http.Client{Transport: base.Clone()}}
	if err := f.start(pr); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

func (f *fleet) start(pr *probe) error {
	for i := 0; i < fleetWorkers; i++ {
		srv, err := server.New(server.Config{JournalPath: f.workerJournal(i)})
		if err != nil {
			return err
		}
		f.workers = append(f.workers, srv)
		url, err := f.serve(pr.wrap(i, srv.Handler()))
		if err != nil {
			return err
		}
		f.workerURLs = append(f.workerURLs, url)
	}
	coord, err := cluster.New(cluster.Config{
		Workers:     f.workerURLs,
		JournalPath: filepath.Join(f.dir, "coord.jsonl"),
		Transport:   f.coordTr,
	})
	if err != nil {
		return err
	}
	f.coord = coord
	if f.coordURL, err = f.serve(pr.wrap(-1, coord.Handler())); err != nil {
		return err
	}
	for _, url := range append([]string{f.coordURL}, f.workerURLs...) {
		if err := f.awaitReady(url); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) workerJournal(i int) string {
	return filepath.Join(f.dir, "worker"+strconv.Itoa(i)+".jsonl")
}

// serve exposes h on a fresh loopback port.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	lb := &loopback{hs: &http.Server{Handler: h}, done: make(chan struct{})}
	f.servers = append(f.servers, lb)
	go func() {
		defer close(lb.done)
		lb.err = lb.hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// loopback is one HTTP server of the fleet and its Serve goroutine.
type loopback struct {
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
	err  error         // Serve's result, valid once done is closed
}

func (f *fleet) awaitReady(url string) error {
	deadline := clock().Add(10 * time.Second)
	for {
		resp, err := f.client.Get(url + "/readyz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			err = errors.Join(err, resp.Body.Close())
			if err == nil && resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if clock().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after 10s (last error %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close tears the whole fleet down and waits for every server goroutine.
func (f *fleet) close() error {
	var errs []error
	for _, lb := range f.servers {
		errs = append(errs, lb.hs.Close())
		<-lb.done
		if !errors.Is(lb.err, http.ErrServerClosed) {
			errs = append(errs, lb.err)
		}
	}
	if f.coord != nil {
		errs = append(errs, f.coord.Close())
	}
	for _, w := range f.workers {
		errs = append(errs, w.Close())
	}
	f.coordTr.CloseIdleConnections()
	f.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// getJSON decodes a GET response body into v.
func (f *fleet) getJSON(url string, v any) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// streamRec holds the fields of a metrics-stream record the benchmark
// checks or reports.
type streamRec struct {
	Type       string             `json:"type"`
	Seed       int64              `json:"seed"`
	Slots      int                `json:"slots"`
	S1NS       int64              `json:"s1_ns"`
	S2NS       int64              `json:"s2_ns"`
	S3NS       int64              `json:"s3_ns"`
	QueueNS    int64              `json:"queue_ns"`
	S4NS       int64              `json:"s4_ns"`
	TotalNS    int64              `json:"total_ns"`
	S1LPSolves int64              `json:"s1_lp_solves"`
	S1LPIters  int64              `json:"s1_lp_iters"`
	S4LPSolves int64              `json:"s4_lp_solves"`
	S4LPIters  int64              `json:"s4_lp_iters"`
	Metrics    map[string]float64 `json:"metrics"`
}

// jobOutcome is what one submitted job returned.
type jobOutcome struct {
	latency     time.Duration
	slotRecs    int
	streamBytes int
	recs        []streamRec
}

// job submits one job for seeds and reads its merged stream to the end.
// The latency runs from the submit until the last record is read; the
// stream is parsed afterwards.
func (f *fleet) job(spec sim.ScenarioSpec, seeds []int64) (jobOutcome, error) {
	body, err := json.Marshal(server.JobRequest{Spec: spec, Seeds: seeds})
	if err != nil {
		return jobOutcome{}, err
	}
	t0 := clock()
	resp, err := f.client.Post(f.coordURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobOutcome{}, err
	}
	var st server.JobStatus
	err = errors.Join(json.NewDecoder(resp.Body).Decode(&st), resp.Body.Close())
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jobOutcome{}, fmt.Errorf("submit: %s (%v)", resp.Status, err)
	}
	resp, err = f.client.Get(f.coordURL + "/v1/jobs/" + st.ID + "/metrics")
	if err != nil {
		return jobOutcome{}, err
	}
	data, err := io.ReadAll(resp.Body)
	err = errors.Join(err, resp.Body.Close())
	out := jobOutcome{latency: time.Since(t0), streamBytes: len(data)}
	if err != nil || resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stream %s: %s (%v)", st.ID, resp.Status, err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var r streamRec
		if err := json.Unmarshal(line, &r); err != nil {
			return out, fmt.Errorf("stream %s: %w", st.ID, err)
		}
		if r.Type == "slot" {
			out.slotRecs++
		}
		out.recs = append(out.recs, r)
	}
	return out, nil
}

// checkStream verifies a merged stream: seeds × (slots + 2) records, one
// header/slots/summary block per seed in ascending seed order, and each
// summary equal to the seed's pinned reference.
func checkStream(recs []streamRec, seeds []int64, slots int, refs []ref) error {
	if want := len(seeds) * (slots + 2); len(recs) != want {
		return fmt.Errorf("%d records, want %d", len(recs), want)
	}
	sorted := append([]int64(nil), seeds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for k, seed := range sorted {
		block := recs[k*(slots+2) : (k+1)*(slots+2)]
		if block[0].Type != "header" || block[0].Seed != seed {
			return fmt.Errorf("block %d: %s for seed %d, want the header of seed %d", k, block[0].Type, block[0].Seed, seed)
		}
		for _, r := range block[1 : slots+1] {
			if r.Type != "slot" {
				return fmt.Errorf("seed %d: %s record among its slots", seed, r.Type)
			}
		}
		sum := block[slots+1]
		if sum.Type != "summary" || sum.Slots != slots {
			return fmt.Errorf("seed %d: block ends with %s of %d slots", seed, sum.Type, sum.Slots)
		}
		cost := sum.Metrics["energy_cost_total"] / float64(slots)
		if err := refs[seed-1].check(seed, cost, sum.Metrics["delivered_pkts_total"]); err != nil {
			return err
		}
	}
	return nil
}

// fleetPhase is one measured stretch of a fleet-resweep run.
type fleetPhase struct {
	f      *fleet
	spec   sim.ScenarioSpec
	slots  int
	window int
	refs   []ref
	pr     *probe
	tr     *tracer

	next  int            // index of the next window's first pool seed
	seen  map[int64]bool // seeds that have already run in this process
	limit int            // windows end before this index: a run never wraps

	mixedNS, cachedNS []int64
	freshTotalNS      []int64   // total_ns of every fresh slot record
	fresh             streamRec // sums over the fresh slot records
	freshSlots        int
	slotRecs, bytes   int
	attempted, failed int
	elapsed           time.Duration
	rt0, rt1          runtimeSample
	jobIndex          int
}

// measure runs closed-loop job pairs until dur has elapsed: a job over
// the next window of W seeds, whose first half the previous job already
// ran (cache reads) and whose second half is new (fresh runs), then an
// exact resubmit of it, served wholly from the cache.
func (p *fleetPhase) measure(dur time.Duration) {
	buf := newRuntimeBuf()
	runtime.GC() // start every measurement from a collected heap
	p.rt0 = readRuntime(buf)
	start := clock()
	for time.Since(start) < dur && p.next+p.window <= p.limit {
		seeds := p.nextWindow()
		for _, resubmit := range []bool{false, true} {
			if err := p.runJob(seeds, resubmit); err != nil {
				p.failed++
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
			p.attempted++
		}
	}
	p.elapsed = time.Since(start)
	p.rt1 = readRuntime(buf)
	if p.elapsed < dur {
		fmt.Fprintf(os.Stderr, "perfbench: seed pool used up after %v of %v\n", p.elapsed, dur)
	}
}

// nextWindow returns the next job's W seeds and advances by W/2.
func (p *fleetPhase) nextWindow() []int64 {
	seeds := make([]int64, p.window)
	for i := range seeds {
		seeds[i] = int64((p.next+i)%len(p.refs)) + 1
	}
	p.next += p.window / 2
	return seeds
}

// prime runs the first window once, unmeasured, so that every measured
// mixed job finds half of its cells cached.
func (p *fleetPhase) prime() {
	seeds := p.nextWindow()
	out, err := p.f.job(p.spec, seeds)
	if err == nil {
		err = checkStream(out.recs, seeds, p.slots, p.refs)
	}
	p.attempted++
	if err != nil {
		p.failed++
		fmt.Fprintln(os.Stderr, "perfbench: priming job:", err)
	}
	for _, s := range seeds {
		p.seen[s] = true
	}
}

func (p *fleetPhase) runJob(seeds []int64, resubmit bool) error {
	p.jobIndex++
	kind := "mixed"
	if resubmit {
		kind = "resubmit"
	}
	if p.tr != nil {
		p.pr.beginJob(p.tr, "job-"+strconv.Itoa(p.jobIndex)+"-"+kind)
		defer p.pr.endJob()
	}
	out, err := p.f.job(p.spec, seeds)
	if err != nil {
		return err
	}
	if err := checkStream(out.recs, seeds, p.slots, p.refs); err != nil {
		return fmt.Errorf("%s job over seeds %v: %w", kind, seeds, err)
	}
	p.slotRecs += out.slotRecs
	p.bytes += out.streamBytes
	if resubmit {
		p.cachedNS = append(p.cachedNS, int64(out.latency))
		return nil
	}
	p.mixedNS = append(p.mixedNS, int64(out.latency))
	seed := int64(0)
	for _, r := range out.recs {
		if r.Type == "header" {
			seed = r.Seed
		}
		if r.Type != "slot" || p.seen[seed] {
			continue
		}
		p.freshTotalNS = append(p.freshTotalNS, r.TotalNS)
		p.freshSlots++
		a := &p.fresh
		a.S1NS += r.S1NS
		a.S2NS += r.S2NS
		a.S3NS += r.S3NS
		a.QueueNS += r.QueueNS
		a.S4NS += r.S4NS
		a.TotalNS += r.TotalNS
		a.S1LPSolves += r.S1LPSolves
		a.S1LPIters += r.S1LPIters
		a.S4LPSolves += r.S4LPSolves
		a.S4LPIters += r.S4LPIters
	}
	for _, s := range seeds {
		p.seen[s] = true
	}
	return nil
}

func (p *fleetPhase) slotsPerSecond() float64 {
	return float64(p.slotRecs) / p.elapsed.Seconds()
}

// runFleet runs fleet-resweep: one closed-loop client against a
// coordinator over two greencelld workers, all in this process over
// loopback HTTP, on urban/greedy monolith cells.
func runFleet(o options) (result, error) {
	pool := len(o.refs.Urban)
	if o.window < 2 || o.window%2 != 0 || o.window > pool {
		return result{}, fmt.Errorf("fleet window %d must be even and within the %d-seed pool", o.window, pool)
	}
	if o.refs.Slots != o.slots {
		return result{}, fmt.Errorf("references are for %d slots, run has %d", o.refs.Slots, o.slots)
	}
	root, err := filepath.Abs(filepath.Join(o.workDir, "fleet-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)

	pr := &probe{}
	var setup []time.Duration
	var f *fleet
	for i := 0; i < fleetSetupReps; i++ {
		t0 := clock()
		if f, err = startFleet(filepath.Join(root, strconv.Itoa(i)), pr); err != nil {
			return result{}, err
		}
		setup = append(setup, time.Since(t0))
		if i < fleetSetupReps-1 {
			if err := f.close(); err != nil {
				return result{}, err
			}
		}
	}
	defer f.close()

	// The workload seed picks where in the pool the windows start; a run
	// stops before its windows would wrap onto seeds it already ran.
	offset := int(uint64(o.seed) * 2654435761 % uint64(pool))
	newPhase := func(tr *tracer, next int) *fleetPhase {
		return &fleetPhase{
			f: f, spec: urbanSpec(0, o.slots, false), slots: o.slots, window: o.window,
			refs: o.refs.Urban, pr: pr, tr: tr, next: next, seen: map[int64]bool{},
			limit: offset + pool,
		}
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		p := newPhase(nil, offset)
		p.prime()
		p.measure(dur)
		m := map[string]metric{
			"setup_s":           {medianSeconds(setup), "s"},
			"slots_per_s":       {p.slotsPerSecond(), "1/s"},
			"slot_ms_p50":       {quantile(nsToMS(p.freshTotalNS), 0.5), "ms"},
			"slot_ms_p90":       {quantile(nsToMS(p.freshTotalNS), 0.9), "ms"},
			"alloc_kb_per_slot": {float64(p.rt1.allocBytes-p.rt0.allocBytes) / 1024 / float64(p.slotRecs), "KB"},
			"job_ms_p50":        {quantile(nsToMS(p.mixedNS), 0.5), "ms"},
			"cached_job_ms_p50": {quantile(nsToMS(p.cachedNS), 0.5), "ms"},
		}
		return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
	}

	plain := newPhase(nil, offset)
	plain.prime()
	plain.measure(dur / 2)
	tr := newTracer()
	traced := newPhase(tr, plain.next)
	traced.seen = plain.seen
	pr.start(tr)
	cv0 := f.coord.CounterValues()
	j0, err := f.journalBytes()
	if err != nil {
		return result{}, err
	}
	traced.measure(dur / 2)
	pr.stop()
	cv1 := f.coord.CounterValues()
	j1, err := f.journalBytes()
	if err != nil {
		return result{}, err
	}
	cells, err := f.cellTimes(pr, tr)
	if err != nil {
		return result{}, err
	}
	delta := func(name string) float64 { return cv1[name] - cv0[name] }
	dispatches := delta("coord_dispatches_total")
	freshCells := delta("coord_cells_done_total") - delta("coord_cache_hits_total")
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	a := traced.fresh
	cellRun := 0.0
	for _, c := range cells.run {
		cellRun += c
	}
	vals := map[string]float64{
		"lp.s1_solves_per_slot":         perSlot(float64(a.S1LPSolves), traced.freshSlots),
		"lp.s1_iters_per_slot":          perSlot(float64(a.S1LPIters), traced.freshSlots),
		"lp.s4_solves_per_slot":         perSlot(float64(a.S4LPSolves), traced.freshSlots),
		"lp.s4_iters_per_slot":          perSlot(float64(a.S4LPIters), traced.freshSlots),
		"sched.ms_per_slot":             perSlot(float64(a.S1NS)/1e6, traced.freshSlots),
		"sched.share":                   share(float64(a.S1NS)/1e6, cellRun),
		"energymgmt.ms_per_slot":        perSlot(float64(a.S4NS)/1e6, traced.freshSlots),
		"energymgmt.share":              share(float64(a.S4NS)/1e6, cellRun),
		"routing.ms_per_slot":           perSlot(float64(a.S3NS)/1e6, traced.freshSlots),
		"queueing.ms_per_slot":          perSlot(float64(a.QueueNS)/1e6, traced.freshSlots),
		"core.step_ms_per_slot":         perSlot(float64(a.TotalNS)/1e6, traced.freshSlots),
		"core.self_ms_per_slot":         perSlot(float64(a.TotalNS-a.S1NS-a.S2NS-a.S3NS-a.QueueNS-a.S4NS)/1e6, traced.freshSlots),
		"runtime.gc_cycles_per_slot":    perSlot(float64(traced.rt1.gcCycles-traced.rt0.gcCycles), traced.slotRecs),
		"runtime.gc_cpu_share":          share(traced.rt1.gcCPU-traced.rt0.gcCPU, traced.rt1.totalCPU-traced.rt0.totalCPU),
		"server.requests_per_cell":      per(float64(pr.count("worker", "")), dispatches),
		"server.cell_queue_ms_p50":      quantile(cells.queue, 0.5),
		"server.cell_run_ms_p50":        quantile(cells.run, 0.5),
		"server.journal_bytes_per_cell": per(float64(j1-j0), dispatches),
		"cluster.dispatches_per_cell":   per(dispatches, freshCells),
		"cluster.polls_per_cell":        per(float64(pr.count("worker", "poll")), dispatches),
		"cluster.detect_lag_ms_p50":     quantile(cells.lag, 0.5),
		"cluster.redispatches":          delta("coord_redispatches_total"),
		"cluster.rpc_retries":           delta("coord_rpc_retries_total"),
		"cluster.cache_hit_ratio":       share(delta("coord_cache_hits_total"), delta("coord_cells_done_total")),
		"metrics.stream_bytes_per_slot": perSlot(float64(traced.bytes), traced.slotRecs),
	}
	overhead(vals, plain.slotsPerSecond(), traced.slotsPerSecond())
	path, err := tr.write(o.workDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	failed := plain.failed + traced.failed
	return result{
		Correct: failed == 0, Attempted: plain.attempted + traced.attempted, Failed: failed,
		Metrics: layerSet(vals),
	}, nil
}

// journalBytes sums the workers' journal sizes.
func (f *fleet) journalBytes() (int64, error) {
	var n int64
	for i := range f.workers {
		fi, err := os.Stat(f.workerJournal(i))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// cellSamples are per-cell server timings in milliseconds.
type cellSamples struct{ queue, run, lag []float64 }

// cellTimes reads every worker's job list back over the API and, for
// each cell whose stream the coordinator fetched while tracing, derives
// its queue and run times from the worker's timestamps and the lag from
// finished_at to the coordinator's stream fetch. It adds a server.cell
// span per cell.
func (f *fleet) cellTimes(pr *probe, tr *tracer) (cellSamples, error) {
	var out cellSamples
	for i, url := range f.workerURLs {
		var list struct {
			Jobs []server.JobStatus `json:"jobs"`
		}
		if err := f.getJSON(url+"/v1/jobs", &list); err != nil {
			return out, err
		}
		for _, st := range list.Jobs {
			fetch, ok := pr.fetch(fetchKey{i, st.ID})
			if !ok {
				continue
			}
			created, err1 := time.Parse(time.RFC3339Nano, st.CreatedAt)
			started, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
			finished, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
			if err := errors.Join(err1, err2, err3); err != nil {
				return out, fmt.Errorf("worker %d job %s timestamps: %w", i, st.ID, err)
			}
			out.queue = append(out.queue, float64(started.Sub(created))/1e6)
			out.run = append(out.run, float64(finished.Sub(started))/1e6)
			out.lag = append(out.lag, float64(fetch.at.Sub(finished))/1e6)
			tr.add(span{
				Name: "server.cell", Start: tr.since(created), End: tr.since(finished), Parent: fetch.parent, Run: fetch.run,
				Attrs: map[string]int64{"worker": int64(i), "started_ns": tr.since(started)},
			})
		}
	}
	return out, nil
}

// fetchKey names one worker-side job.
type fetchKey struct {
	worker int
	id     string
}

// fetch is the coordinator's first stream fetch of a finished cell.
type fetch struct {
	at     time.Time
	parent int
	run    string
}

// probe is the benchmark's HTTP handler wrapper: while on, it counts and
// times every request to the coordinator (worker -1) and the workers, and
// records it as a span of the client job in flight. The client is closed
// loop, so every request belongs to the one job in flight, except the
// coordinator's /readyz heartbeats, which are only counted.
type probe struct {
	on atomic.Bool

	mu      sync.Mutex
	tr      *tracer
	counts  map[string]int
	fetches map[fetchKey]fetch
	job     int
	run     string
}

func (p *probe) start(tr *tracer) {
	p.mu.Lock()
	p.tr, p.counts, p.fetches, p.job = tr, map[string]int{}, map[fetchKey]fetch{}, -1
	p.mu.Unlock()
	p.on.Store(true)
}

func (p *probe) stop() { p.on.Store(false) }

// fetch returns the recorded stream fetch of a worker job.
func (p *probe) fetch(k fetchKey) (fetch, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.fetches[k]
	return f, ok
}

// beginJob opens the client span that parents the job's requests.
func (p *probe) beginJob(tr *tracer, run string) {
	i := tr.add(span{Name: "client.job", Start: tr.now(), Parent: -1, Run: run})
	p.mu.Lock()
	p.job, p.run = i, run
	p.mu.Unlock()
}

func (p *probe) endJob() {
	p.mu.Lock()
	i := p.job
	p.job, p.run = -1, ""
	p.mu.Unlock()
	p.tr.setEnd(i, p.tr.now())
}

// count returns the requests recorded for a role ("coord" or "worker")
// and route class; class "" counts every route but /readyz.
func (p *probe) count(role, class string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for k, v := range p.counts {
		r, c, _ := strings.Cut(k, ".")
		if r == role && (c == class || (class == "" && c != "readyz")) {
			n += v
		}
	}
	return n
}

// wrap instruments h as worker i (-1 = the coordinator).
func (p *probe) wrap(worker int, h http.Handler) http.Handler {
	role := "worker"
	if worker < 0 {
		role = "coord"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := clock()
		h.ServeHTTP(w, r)
		t1 := clock()
		class, id := routeClass(r)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.counts[role+"."+class]++
		if class == "readyz" || p.tr == nil {
			return
		}
		name := role + "." + class
		if worker >= 0 {
			name = "worker" + strconv.Itoa(worker) + "." + class
		}
		p.tr.add(span{Name: name, Start: p.tr.since(t0), End: p.tr.since(t1), Parent: p.job, Run: p.run})
		if worker >= 0 && class == "stream" {
			k := fetchKey{worker, id}
			if _, seen := p.fetches[k]; !seen {
				p.fetches[k] = fetch{at: t0, parent: p.job, run: p.run}
			}
		}
	})
}

// routeClass classifies a request of the daemons' shared API and returns
// the job ID it names, if any.
func routeClass(r *http.Request) (class, id string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case r.URL.Path == "/readyz":
		return "readyz", ""
	case len(parts) == 2 && r.Method == http.MethodPost:
		return "submit", ""
	case len(parts) == 3 && r.Method == http.MethodGet:
		return "poll", parts[2]
	case len(parts) == 4 && parts[3] == "metrics":
		return "stream", parts[2]
	}
	return "other", ""
}
