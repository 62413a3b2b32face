package sim

import (
	"strings"

	"greencell/internal/core"
	"greencell/internal/machine"
	"greencell/internal/metrics"
	"greencell/internal/sched"
)

// Recorder bridges a simulation run to the metrics layer: attached to a
// Scenario it observes every SlotResult (and, through sched.Instrumented,
// every S1 solve), emits one metrics.SlotRecord per slot to a
// RecordWriter, and aggregates run-level statistics in a metrics.Registry
// that becomes the stream's closing Summary record.
//
// A Recorder is single-run, single-goroutine: it must not be shared
// across the concurrent replications of RunReplicated (give each run its
// own Recorder, or none).
type Recorder struct {
	w   metrics.RecordWriter
	reg *metrics.Registry

	// Stage timers (nanosecond histograms; their summary aggregates carry
	// the _ns marker CanonicalizeJSONL zeroes).
	tS1, tS2, tS3, tQueue, tS4, tTotal *metrics.Timer

	// Run totals (deterministic for a fixed scenario and seed).
	cGrid, cCost, cRenew, cTx, cDeficit          *metrics.Counter
	cOffered, cAdmitted, cDropped, cDelivered    *metrics.Counter
	cSchedSolves, cSchedIters, cS4Solves, cS4Its *metrics.Counter
	cSlots                                       *metrics.Counter

	// Final queue/battery state.
	gBacklogBS, gBacklogUsers, gBatteryBS, gBatteryUsers *metrics.Gauge
	gVirtualH, gAbsZ                                     *metrics.Gauge

	// hGap accumulates the S1 optimality gap (relaxation − heuristic) when
	// gap comparison is enabled; nil rows otherwise.
	hGap *metrics.Histogram

	// Degradation aggregates (docs/ROBUSTNESS.md): total degraded slots,
	// and the distribution of consecutive-degraded streak lengths — the
	// slots-to-recovery measure. streak is the currently open run of
	// degraded slots, observed into hStreak when the controller recovers
	// (or at Close if the run ends degraded). Per-cause counters
	// (degraded_cause_<cause>_total) register on demand in SlotHook.
	cDegraded *metrics.Counter
	hStreak   *metrics.Histogram
	streak    int

	// Network-fabric aggregates of a distributed run (docs/DISTRIBUTED.md).
	// They register lazily, on the first non-ideal SlotNetStats: a
	// perfect-network distributed run carries Ideal == true every slot and
	// therefore emits a summary byte-identical to the monolith's — the
	// fidelity gate extends through the metrics stream.
	cNetSent, cNetDropped, cNetDelayed, cNetDuped *metrics.Counter
	cNetData, cNetLate, cNetMissed                *metrics.Counter
	cNetStale, cNetClamps                         *metrics.Counter

	// pending is the S1 solve observed since the last slot flush; the
	// scheduler runs inside Controller.Step, before the SlotHook fires.
	pending    sched.SolveRecord
	hasPending bool

	slots int
	err   error // first write error, sticky; surfaced by Close/Err
}

// NewRecorder writes the stream header and returns a recorder feeding w.
// The writer stays owned by the caller's deferred Close chain only through
// the recorder: call Recorder.Close exactly once when the run ends.
func NewRecorder(w metrics.RecordWriter, h metrics.Header) *Recorder {
	r := &Recorder{w: w, reg: metrics.NewRegistry()}

	r.tS1 = r.reg.Timer("stage_s1_ns", "S1 link-scheduling solve wall time")
	r.tS2 = r.reg.Timer("stage_s2_ns", "S2 resource-allocation solve wall time")
	r.tS3 = r.reg.Timer("stage_s3_ns", "S3 routing solve wall time")
	r.tQueue = r.reg.Timer("stage_queue_ns", "transfer execution + queue update wall time")
	r.tS4 = r.reg.Timer("stage_s4_ns", "S4 energy-management solve wall time")
	r.tTotal = r.reg.Timer("stage_total_ns", "whole Controller.Step wall time")

	r.cSlots = r.reg.Counter("slots_total", "slots", "slots recorded")
	r.cGrid = r.reg.Counter("grid_wh_total", "Wh", "total grid draw Σ_t P(t)")
	r.cCost = r.reg.Counter("energy_cost_total", "cost", "total energy cost Σ_t f(P(t))")
	r.cRenew = r.reg.Counter("renewable_wh_total", "Wh", "total renewable output")
	r.cTx = r.reg.Counter("tx_energy_wh_total", "Wh", "total transmission+reception energy")
	r.cDeficit = r.reg.Counter("deficit_wh_total", "Wh", "total unserved energy demand")
	r.cOffered = r.reg.Counter("offered_pkts_total", "pkts", "total traffic offered for admission")
	r.cAdmitted = r.reg.Counter("admitted_pkts_total", "pkts", "total admitted traffic Σ_t Σ_s k_s(t)")
	r.cDropped = r.reg.Counter("dropped_pkts_total", "pkts", "total traffic turned away by S2")
	r.cDelivered = r.reg.Counter("delivered_pkts_total", "pkts", "total packets delivered to destinations")
	r.cSchedSolves = r.reg.Counter("s1_lp_solves_total", "solves", "S1 LP solve calls")
	r.cSchedIters = r.reg.Counter("s1_lp_iters_total", "iters", "S1 simplex iterations")
	r.cS4Solves = r.reg.Counter("s4_lp_solves_total", "solves", "S4 LP solve calls")
	r.cS4Its = r.reg.Counter("s4_lp_iters_total", "iters", "S4 simplex iterations")
	r.cDegraded = r.reg.Counter("degraded_slots_total", "slots",
		"slots that fell back to a safe action (docs/ROBUSTNESS.md)")
	r.hStreak = r.reg.Histogram("degraded_streak_slots", "slots",
		"consecutive-degraded streak lengths (slots until recovery)",
		metrics.ExpBuckets(1, 2, 16))

	r.gBacklogBS = r.reg.Gauge("final_data_backlog_bs", "pkts", "end-of-run BS data backlog")
	r.gBacklogUsers = r.reg.Gauge("final_data_backlog_users", "pkts", "end-of-run user data backlog")
	r.gBatteryBS = r.reg.Gauge("final_battery_wh_bs", "Wh", "end-of-run BS battery charge")
	r.gBatteryUsers = r.reg.Gauge("final_battery_wh_users", "Wh", "end-of-run user battery charge")
	r.gVirtualH = r.reg.Gauge("final_virtual_backlog_h", "pkts", "end-of-run Σ H_ij")
	r.gAbsZ = r.reg.Gauge("final_shifted_abs_z", "Wh", "end-of-run Σ|z_i|")

	if err := w.WriteHeader(h); err != nil {
		r.err = err
	}
	return r
}

// Registry exposes the run-level aggregates (for tests and tooling).
func (r *Recorder) Registry() *metrics.Registry { return r.reg }

// OnSolve records one S1 solve; wire it as sched.Instrumented.OnSolve.
// The record is attached to the next slot flushed by SlotHook (the
// scheduler runs earlier in the same Controller.Step).
func (r *Recorder) OnSolve(rec sched.SolveRecord) {
	r.pending = rec
	r.hasPending = true
	r.reg.Timer("sched_"+rec.Strategy+"_solve_ns", "S1 solve wall time of the "+rec.Strategy+" strategy").
		ObserveNS(rec.NS)
	if rec.HasRelaxed {
		if r.hGap == nil {
			r.hGap = r.reg.Histogram("s1_gap", "weighted-rate",
				"S1 optimality gap: LP-relaxation bound − achieved objective",
				metrics.ExpBuckets(1e-3, 2, 48))
		}
		r.hGap.Observe(rec.Gap())
	}
}

// SlotHook emits one SlotRecord; wire it as Scenario.SlotHook. Write
// errors are sticky and surfaced by Close, so a full disk cannot abort
// the simulation itself.
func (r *Recorder) SlotHook(sr *core.SlotResult) {
	rec := metrics.SlotRecord{
		Slot:             sr.Slot,
		ScheduledLinks:   sr.ScheduledLinks,
		OfferedPkts:      sr.OfferedPkts,
		AdmittedPkts:     sr.AdmittedPkts,
		DroppedPkts:      sr.DroppedPkts,
		DataBacklogBS:    sr.DataBacklogBS,
		DataBacklogUsers: sr.DataBacklogUsers,
		VirtualBacklogH:  sr.VirtualBacklogH,
		ShiftedAbsZ:      sr.ShiftedEnergyAbsZ.Wh(),
		BatteryWhBS:      sr.BatteryWhBS.Wh(),
		BatteryWhUsers:   sr.BatteryWhUsers.Wh(),
		GridWh:           sr.GridWh.Wh(),
		EnergyCost:       sr.EnergyCost.Value(),
		PenaltyObjective: sr.PenaltyObjective,
		MarginalPriceWh:  sr.MarginalPriceWh.PerWh(),
		RenewableWh:      sr.RenewableWh.Wh(),
		DemandWh:         sr.DemandWh.Wh(),
		TxEnergyWh:       sr.TxEnergyWh.Wh(),
		DeficitWh:        sr.DeficitWh.Wh(),
	}
	for _, d := range sr.DeliveredPkts {
		rec.DeliveredPkts += d
	}
	if st := sr.Stages; st != nil {
		rec.S1NS, rec.S2NS, rec.S3NS = st.S1NS, st.S2NS, st.S3NS
		rec.QueueNS, rec.S4NS, rec.TotalNS = st.QueueNS, st.S4NS, st.TotalNS
		rec.S1LPSolves, rec.S1LPIters = st.SchedLPSolves, st.SchedLPIterations
		rec.S4LPSolves, rec.S4LPIters = st.S4LPSolves, st.S4LPIterations
		rec.S1Objective = st.SchedObjective

		r.tS1.ObserveNS(st.S1NS)
		r.tS2.ObserveNS(st.S2NS)
		r.tS3.ObserveNS(st.S3NS)
		r.tQueue.ObserveNS(st.QueueNS)
		r.tS4.ObserveNS(st.S4NS)
		r.tTotal.ObserveNS(st.TotalNS)
		r.cSchedSolves.Add(float64(st.SchedLPSolves))
		r.cSchedIters.Add(float64(st.SchedLPIterations))
		r.cS4Solves.Add(float64(st.S4LPSolves))
		r.cS4Its.Add(float64(st.S4LPIterations))
	}
	if r.hasPending && r.pending.HasRelaxed {
		v := r.pending.RelaxedObjective
		rec.S1RelaxedObjective = &v
	}
	r.hasPending = false

	if sr.Degraded {
		rec.Degraded = 1
		rec.DegradedCauses = strings.Join(sr.DegradedCauses, ";")
		r.cDegraded.Inc()
		for _, cause := range sr.DegradedCauses {
			r.reg.Counter("degraded_cause_"+cause+"_total", "slots",
				"slots degraded with cause "+cause).Inc()
		}
		r.streak++
	} else if r.streak > 0 {
		r.hStreak.Observe(float64(r.streak))
		r.streak = 0
	}

	r.cSlots.Inc()
	r.cGrid.Add(sr.GridWh.Wh())
	r.cCost.Add(sr.EnergyCost.Value())
	r.cRenew.Add(sr.RenewableWh.Wh())
	r.cTx.Add(sr.TxEnergyWh.Wh())
	r.cDeficit.Add(sr.DeficitWh.Wh())
	r.cOffered.Add(sr.OfferedPkts)
	r.cAdmitted.Add(sr.AdmittedPkts)
	r.cDropped.Add(sr.DroppedPkts)
	r.cDelivered.Add(rec.DeliveredPkts)
	r.gBacklogBS.Set(sr.DataBacklogBS)
	r.gBacklogUsers.Set(sr.DataBacklogUsers)
	r.gBatteryBS.Set(sr.BatteryWhBS.Wh())
	r.gBatteryUsers.Set(sr.BatteryWhUsers.Wh())
	r.gVirtualH.Set(sr.VirtualBacklogH)
	r.gAbsZ.Set(sr.ShiftedEnergyAbsZ.Wh())
	r.slots++

	if r.err == nil {
		r.err = r.w.WriteSlot(&rec)
	}
}

// NetHook aggregates one slot of network-fabric statistics from a
// distributed run; wire it as Scenario.NetHook (Attach does so). Ideal
// slots — zero-valued delivery model, no offline nodes, no injected net
// faults — register nothing, so a perfect-network distributed stream
// stays byte-identical to the monolith's golden fixture.
func (r *Recorder) NetHook(st machine.SlotNetStats) {
	if st.Ideal {
		return
	}
	if r.cNetSent == nil {
		r.cNetSent = r.reg.Counter("net_msgs_sent_total", "msgs",
			"control messages handed to the simulated network")
		r.cNetDropped = r.reg.Counter("net_msgs_dropped_total", "msgs",
			"control messages lost by the delivery model")
		r.cNetDelayed = r.reg.Counter("net_msgs_delayed_total", "msgs",
			"control messages delivered at least one tick late")
		r.cNetDuped = r.reg.Counter("net_msgs_duped_total", "msgs",
			"duplicate control-message deliveries")
		r.cNetData = r.reg.Counter("net_data_msgs_total", "msgs",
			"data-plane packet transfers (reliable, next tick)")
		r.cNetLate = r.reg.Counter("net_msgs_late_total", "msgs",
			"commands discarded by nodes for arriving past their use-by round")
		r.cNetMissed = r.reg.Counter("net_missed_cmds_total", "cmds",
			"node-slots that executed without a fresh energy command")
		r.cNetStale = r.reg.Counter("net_stale_views_total", "views",
			"node views the coordinator decided on without current-slot gossip")
		r.cNetClamps = r.reg.Counter("net_node_clamps_total", "clamps",
			"command components clamped by nodes against local truth")
	}
	r.cNetSent.Add(float64(st.Sent))
	r.cNetDropped.Add(float64(st.Dropped))
	r.cNetDelayed.Add(float64(st.Delayed))
	r.cNetDuped.Add(float64(st.Duped))
	r.cNetData.Add(float64(st.DataMsgs))
	r.cNetLate.Add(float64(st.Late))
	r.cNetMissed.Add(float64(st.MissedCmds))
	r.cNetStale.Add(float64(st.StaleViews))
	r.cNetClamps.Add(float64(st.NodeClamps))
}

// Err returns the first write error seen so far (nil if none).
func (r *Recorder) Err() error { return r.err }

// Close writes the Summary record, flushes the writer, and returns the
// first error of the whole stream.
func (r *Recorder) Close() error {
	if r.streak > 0 {
		// The run ended mid-streak; flush it so the histogram covers
		// every degraded slot.
		r.hStreak.Observe(float64(r.streak))
		r.streak = 0
	}
	if r.err == nil {
		r.err = r.w.WriteSummary(metrics.Summary{
			Slots:   r.slots,
			Metrics: r.reg.Snapshot(),
		})
	}
	if err := r.w.Close(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// Attach wires the recorder into a scenario: it switches on controller
// instrumentation, wraps the S1 scheduler with sched.Instrumented (with
// the optional relaxation-gap comparison), and chains SlotHook after any
// hook already present.
func (r *Recorder) Attach(sc *Scenario, compareGap bool) {
	sc.Instrument = true
	sc.Scheduler = sched.Instrumented{
		Inner:          sc.Scheduler,
		CompareRelaxed: compareGap,
		OnSolve:        r.OnSolve,
	}
	if prev := sc.SlotHook; prev != nil {
		sc.SlotHook = func(sr *core.SlotResult) {
			prev(sr)
			r.SlotHook(sr)
		}
	} else {
		sc.SlotHook = r.SlotHook
	}
	if prev := sc.NetHook; prev != nil {
		sc.NetHook = func(st machine.SlotNetStats) {
			prev(st)
			r.NetHook(st)
		}
	} else {
		sc.NetHook = r.NetHook
	}
}

// HeaderFor builds the stream header for a scenario. label is the
// free-form scenario name ("paper", "urban", …).
func HeaderFor(sc Scenario, label string) metrics.Header {
	return metrics.Header{
		Scenario:     label,
		Architecture: sc.Architecture.String(),
		Scheduler:    sched.StrategyName(sc.Scheduler),
		V:            sc.V,
		Lambda:       sc.Lambda,
		SlotSeconds:  sc.SlotSeconds,
		Slots:        sc.Slots,
		Seed:         sc.Seed,
		Sessions:     sc.NumSessions + sc.UplinkSessions,
		Users:        sc.Topology.NumUsers,
	}
}
