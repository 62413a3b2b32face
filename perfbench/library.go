package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"greencell/internal/core"
	"greencell/internal/machine"
	"greencell/internal/sched"
	"greencell/internal/sim"
)

// minSetupReps is the least number of set-ups a library run times;
// setup_s is their median.
const minSetupReps = 48

// library describes one library workload: its spec and pinned references.
type library struct {
	spec func(seed int64) sim.ScenarioSpec
	refs []ref
	dist bool
}

func libraryOf(o options) library {
	if o.workload == "paper-sf" {
		return library{
			spec: func(s int64) sim.ScenarioSpec { return paperSpec(s, o.slots) },
			refs: o.refs.Paper,
		}
	}
	return library{
		spec: func(s int64) sim.ScenarioSpec { return urbanSpec(s, o.slots, true) },
		refs: o.refs.Urban,
		dist: true,
	}
}

// runLibrary runs paper-sf or urban-greedy-dist: the pool's seeds one
// after another in one goroutine, in the order the workload seed draws,
// in whole rounds until the measuring time is used up. Untraced, every
// seed runs at least twice: first runs give job_ms_p50, repeats give
// cached_job_ms_p50 (the library keeps no result cache, so a repeat pays
// the full run). Traced, each seed runs untraced and then traced, for the
// per-layer metrics and the tracing overhead.
func runLibrary(o options) (result, error) {
	lib := libraryOf(o)
	if o.pool > len(lib.refs) || o.pool <= 0 {
		return result{}, fmt.Errorf("pool of %d seeds, but %d references", o.pool, len(lib.refs))
	}
	if o.refs.Slots != o.slots {
		return result{}, fmt.Errorf("references are for %d slots, run has %d", o.refs.Slots, o.slots)
	}
	order := permutation(o.seed, o.pool)
	// One seed per core is how sweeps run in bulk, so a library run gets
	// one P: the garbage collector's work then counts against the slot
	// loop instead of hiding on an idle core, and no collection has to
	// wait for a second, possibly descheduled, virtual CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Set-up cost differs by seed, so the set-ups cycle through the whole
	// pool, whole cycles only: every run times the same set of seeds.
	reps := (minSetupReps + len(order) - 1) / len(order) * len(order)
	setup := make([]time.Duration, reps)
	build := make([]float64, reps)
	for i := range setup {
		t0 := clock()
		sc, err := lib.spec(order[i%len(order)]).Scenario()
		if err != nil {
			return result{}, err
		}
		t1 := clock()
		if _, _, _, err := sim.Build(sc); err != nil {
			return result{}, err
		}
		setup[i] = time.Since(t0)
		build[i] = float64(time.Since(t1)) / 1e6
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	runtime.GC() // start the measurement from a collected heap
	if !o.trace {
		p := newLibPhase(lib, nil)
		rounds(dur, func(round int) {
			// The first round runs every seed twice, each repeat right
			// after the next seed's first run, so first runs (job_ms_p50)
			// and repeats (cached_job_ms_p50) see the same host conditions;
			// later rounds are repeats only.
			for i, seed := range order {
				p.run(seed)
				if round == 0 && i > 0 {
					p.run(order[i-1])
				}
			}
			if round == 0 {
				p.run(order[len(order)-1])
			}
		})
		m := map[string]metric{
			"setup_s":           {medianSeconds(setup), "s"},
			"slots_per_s":       {p.slotsPerSecond(), "1/s"},
			"slot_ms_p50":       {quantile(nsToMS(p.lat), 0.5), "ms"},
			"slot_ms_p90":       {quantile(nsToMS(p.lat), 0.9), "ms"},
			"alloc_kb_per_slot": {float64(p.rt.allocBytes) / 1024 / float64(p.slots), "KB"},
			"job_ms_p50":        {quantile(nsToMS(p.jobNS), 0.5), "ms"},
			"cached_job_ms_p50": {quantile(nsToMS(p.repeatNS), 0.5), "ms"},
		}
		return p.result(m), nil
	}

	// Traced, every seed runs once untraced and then once traced, so the
	// overhead compares the two under the same host conditions.
	plain := newLibPhase(lib, nil)
	tr := newTracer()
	traced := newLibPhase(lib, tr)
	rounds(dur, func(int) {
		for _, seed := range order {
			plain.run(seed)
			traced.run(seed)
		}
	})

	a := &traced.acc
	wall := float64(a.wallNS)
	vals := map[string]float64{
		"lp.s1_solves_per_slot":      perSlot(float64(a.s1Solves), a.slots),
		"lp.s1_iters_per_slot":       perSlot(float64(a.s1Iters), a.slots),
		"lp.s4_solves_per_slot":      perSlot(float64(a.s4Solves), a.slots),
		"lp.s4_iters_per_slot":       perSlot(float64(a.s4Iters), a.slots),
		"lp.warm_starts_per_slot":    perSlot(float64(a.warm), a.slots),
		"lp.invalidations_per_slot":  perSlot(float64(a.inval), a.slots),
		"sched.ms_per_slot":          perSlot(float64(a.schedNS)/1e6, a.slots),
		"sched.share":                share(float64(a.schedNS), wall),
		"energymgmt.ms_per_slot":     perSlot(float64(a.s4NS)/1e6, a.slots),
		"energymgmt.share":           share(float64(a.s4NS), wall),
		"routing.ms_per_slot":        perSlot(float64(a.s3NS)/1e6, a.slots),
		"queueing.ms_per_slot":       perSlot(float64(a.queueNS)/1e6, a.slots),
		"core.step_ms_per_slot":      perSlot(float64(a.stepNS)/1e6, a.slots),
		"core.self_ms_per_slot":      perSlot(float64(a.stepNS-a.stagesNS)/1e6, a.slots),
		"machine.msgs_per_slot":      perSlot(float64(a.msgs), a.slots),
		"machine.ms_per_slot":        perSlot(float64(a.machineNS)/1e6, a.slots),
		"machine.share":              share(float64(a.machineNS), wall),
		"sim.build_ms":               quantile(build, 0.5),
		"sim.ms_per_slot":            perSlot(float64(a.wallNS-a.stepNS-a.machineNS)/1e6, a.slots),
		"runtime.gc_cycles_per_slot": perSlot(float64(traced.rt.gcCycles), a.slots),
		"runtime.gc_cpu_share":       share(traced.rt.gcCPU, traced.rt.totalCPU),
	}
	overhead(vals, plain.slotsPerSecond(), traced.slotsPerSecond())
	path, err := tr.write(o.workDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	res := plain.result(layerSet(vals))
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0
	return res, nil
}

// rounds calls round(0), round(1), ... until dur has elapsed, at least once.
func rounds(dur time.Duration, round func(int)) {
	start := clock()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		round(i)
	}
}

// libPhase accumulates the runs of one kind, untraced or traced, of a
// library run.
type libPhase struct {
	lib library
	tr  *tracer

	slotHook func(*core.SlotResult)
	netHook  func(machine.SlotNetStats)
	last     time.Time // end of the previous slot
	runs     []int     // completed runs per pool seed
	rtBuf    []metrics.Sample

	lat      []int64 // slot decision latencies (SlotHook intervals), ns
	jobNS    []int64 // first run of each seed, ns
	repeatNS []int64 // later runs, ns

	slots, attempted, failed int
	busy                     time.Duration // time spent in seed runs
	rt                       runtimeSample // runtime counters summed over the runs

	acc layerAcc
	// Span bookkeeping of the traced phase: the running seed's span and
	// the sched spans recorded since the last slot ended.
	runSpan      int
	runID        string
	pendingSched []int
}

// layerAcc accumulates the traced phase's per-layer totals.
type layerAcc struct {
	slots                                int
	s1Solves, s1Iters, s4Solves, s4Iters int64
	warm, inval, msgs                    int64
	schedNS, s4NS, s3NS, queueNS         int64
	stepNS, stagesNS, machineNS, wallNS  int64
}

// newLibPhase preallocates every buffer and hook a run needs: untraced,
// the hooks allocate nothing, so alloc_kb_per_slot counts only the
// program's allocations.
func newLibPhase(lib library, tr *tracer) *libPhase {
	p := &libPhase{
		lib:      lib,
		tr:       tr,
		runs:     make([]int, len(lib.refs)),
		rtBuf:    newRuntimeBuf(),
		lat:      make([]int64, 0, 1<<18),
		jobNS:    make([]int64, 0, 1024),
		repeatNS: make([]int64, 0, 4096),
	}
	p.slotHook = func(sr *core.SlotResult) {
		now := clock()
		if sr.Slot > 0 {
			p.lat = append(p.lat, int64(now.Sub(p.last)))
		}
		if p.tr != nil {
			p.traceSlot(sr, p.last, now)
		}
		p.last = now
	}
	if tr != nil {
		p.netHook = func(st machine.SlotNetStats) { p.acc.msgs += int64(st.Sent) }
	}
	return p
}

// run runs one seed and adds its time and runtime counters to the phase.
func (p *libPhase) run(seed int64) {
	before := readRuntime(p.rtBuf)
	t0 := clock()
	p.last = t0
	err := p.runSeed(seed, p.runs[seed-1])
	d := time.Since(t0)
	p.rt.add(before, readRuntime(p.rtBuf))
	p.busy += d
	if p.runs[seed-1] == 0 {
		p.jobNS = append(p.jobNS, int64(d))
	} else {
		p.repeatNS = append(p.repeatNS, int64(d))
	}
	p.runs[seed-1]++
	p.attempted++
	if err != nil {
		p.failed++
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// runSeed materializes the seed's spec, runs it, and checks the outcome
// against the pinned reference.
func (p *libPhase) runSeed(seed int64, nth int) error {
	sc, err := p.lib.spec(seed).Scenario()
	if err != nil {
		return err
	}
	sc.SlotHook = p.slotHook
	var t0 time.Time
	if p.tr != nil {
		sc.Instrument = true
		sc.NetHook = p.netHook
		inner := sc.Scheduler
		if inner == nil {
			inner = sched.SequentialFix{}
		}
		sc.Scheduler = timedScheduler{inner: inner, p: p}
		p.runID = "seed-" + strconv.FormatInt(seed, 10) + "-run-" + strconv.Itoa(nth)
		t0 = clock()
		p.runSpan = p.tr.add(span{Name: "sim.run", Start: p.tr.since(t0), Parent: -1, Run: p.runID})
	}
	res, err := sim.RunCtx(context.Background(), sc)
	if p.tr != nil {
		end := clock()
		p.tr.setEnd(p.runSpan, p.tr.since(end))
		p.acc.wallNS += int64(end.Sub(t0))
	}
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	p.slots += sc.Slots
	return p.lib.refs[seed-1].check(seed, res.AvgEnergyCost.Value(), res.DeliveredPkts)
}

// traceSlot records the slot's spans and adds its stage breakdown to the
// layer totals.
func (p *libPhase) traceSlot(sr *core.SlotResult, from, to time.Time) {
	st := sr.Stages
	if st == nil {
		return
	}
	a := &p.acc
	a.slots++
	a.s1Solves += int64(st.SchedLPSolves)
	a.s1Iters += int64(st.SchedLPIterations)
	a.s4Solves += int64(st.S4LPSolves)
	a.s4Iters += int64(st.S4LPIterations)
	a.warm += int64(st.LPWarmStarts)
	a.inval += int64(st.LPBasisInvalidations)
	a.s4NS += st.S4NS
	a.s3NS += st.S3NS
	a.queueNS += st.QueueNS
	a.stepNS += st.TotalNS
	a.stagesNS += st.S1NS + st.S2NS + st.S3NS + st.QueueNS + st.S4NS
	// Slot 0's interval also holds RunCtx's own build, so outside-Step
	// time is charged to the machine layer from slot 1 on only.
	if sr.Slot > 0 && p.lib.dist {
		a.machineNS += int64(to.Sub(from)) - st.TotalNS
	}

	slot := p.tr.add(span{Name: "sim.slot", Start: p.tr.since(from), End: p.tr.since(to), Parent: p.runSpan, Run: p.runID})
	p.tr.add(span{
		Name: "core.step", Start: p.tr.since(to) - st.TotalNS, End: p.tr.since(to), Parent: slot, Run: p.runID,
		Attrs: map[string]int64{
			"s1_ns": st.S1NS, "s2_ns": st.S2NS, "s3_ns": st.S3NS, "queue_ns": st.QueueNS, "s4_ns": st.S4NS,
			"s1_lp_solves": int64(st.SchedLPSolves), "s1_lp_iters": int64(st.SchedLPIterations),
			"s4_lp_solves": int64(st.S4LPSolves), "s4_lp_iters": int64(st.S4LPIterations),
		},
	})
	for _, i := range p.pendingSched {
		p.tr.setParent(i, slot)
	}
	p.pendingSched = p.pendingSched[:0]
}

func (p *libPhase) slotsPerSecond() float64 {
	return float64(p.slots) / p.busy.Seconds()
}

func (p *libPhase) result(m map[string]metric) result {
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}
}

// timedScheduler is the traced run's S1 decorator: it times each
// Schedule call of the wrapped solver as a sched span.
type timedScheduler struct {
	inner sched.Scheduler
	p     *libPhase
}

func (s timedScheduler) Schedule(req *sched.Request) (*sched.Assignment, error) {
	t0 := clock()
	asg, err := s.inner.Schedule(req)
	t1 := clock()
	p := s.p
	p.acc.schedNS += int64(t1.Sub(t0))
	i := p.tr.add(span{Name: "sched.schedule", Start: p.tr.since(t0), End: p.tr.since(t1), Parent: p.runSpan, Run: p.runID})
	p.pendingSched = append(p.pendingSched, i)
	return asg, err
}
