package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// SchemaName identifies the record stream format.
const SchemaName = "greencell.metrics"

// SchemaVersion is the version of the record schema emitted by this
// package. Bump it whenever a field of Header, SlotRecord, or Summary is
// added, removed, or changes meaning or unit, and update docs/METRICS.md
// in the same change.
//
// Version history: 2 added the degradation fields (degraded,
// degraded_causes) of the fault-tolerance layer (docs/ROBUSTNESS.md);
// 3 added the on-demand summary counters lp_warm_starts_total and
// lp_basis_invalidations_total of the warm-started LP engine — emitted
// only by runs with warm-starting on, so cold streams are byte-compatible
// with version 2 apart from this version field (the engine and both
// counters have since been removed, leaving default streams unchanged);
// 4 registered the cluster coordinator's serving-level coord_* counters
// (docs/CLUSTER.md) — slot records and summaries are unchanged, so v4
// streams differ from v3 only in this version field;
// 5 registered the distributed controller's net_* summary counters
// (docs/DISTRIBUTED.md) — emitted only by distributed runs over a
// non-ideal network, so monolithic and perfect-network streams differ
// from v4 only in this version field.
const SchemaVersion = 5

// Header is the first record of every metrics stream: it pins the schema
// version and the run's identifying parameters, so a stream is
// self-describing. All fields are deterministic for a fixed scenario and
// seed.
type Header struct {
	Type    string `json:"type"` // always "header"
	Schema  string `json:"schema"`
	Version int    `json:"version"`

	// Scenario is a free-form label ("paper", "urban", …).
	Scenario string `json:"scenario,omitempty"`
	// Architecture is the Fig. 2(f) variant name.
	Architecture string `json:"architecture,omitempty"`
	// Scheduler is the S1 solver name ("sf", "greedy", "exact", "relaxed").
	Scheduler string `json:"scheduler,omitempty"`

	V           float64 `json:"v"`
	Lambda      float64 `json:"lambda"`
	SlotSeconds float64 `json:"slot_seconds"`
	Slots       int     `json:"slots"`
	Seed        int64   `json:"seed"`
	Sessions    int     `json:"sessions"`
	Users       int     `json:"users"`
}

// NewHeader stamps the schema identity onto a header.
func NewHeader(h Header) Header {
	h.Type = "header"
	h.Schema = SchemaName
	h.Version = SchemaVersion
	return h
}

// SlotRecord is one slot of the drift-plus-penalty control loop, the core
// of the metrics schema. Field-by-field documentation lives in
// docs/METRICS.md; the invariant worth restating here is that every
// wall-clock timing field name contains "_ns" and everything else is a
// deterministic function of (scenario, seed).
type SlotRecord struct {
	Type string `json:"type"` // always "slot"
	Slot int    `json:"slot"`

	// Stage wall-clock timings (nanoseconds): the four subproblem solves,
	// the queue/battery state update, and the whole Controller.Step.
	S1NS    int64 `json:"s1_ns"`
	S2NS    int64 `json:"s2_ns"`
	S3NS    int64 `json:"s3_ns"`
	QueueNS int64 `json:"queue_ns"`
	S4NS    int64 `json:"s4_ns"`
	TotalNS int64 `json:"total_ns"`

	// LP work behind the slot: simplex solve calls and total simplex
	// iterations (pivots + bound flips) in S1 scheduling and S4 energy
	// management.
	S1LPSolves int `json:"s1_lp_solves"`
	S1LPIters  int `json:"s1_lp_iters"`
	S4LPSolves int `json:"s4_lp_solves"`
	S4LPIters  int `json:"s4_lp_iters"`

	// S1Objective is the scheduler's achieved Σ H_ij·c_ij (bits/s-weighted).
	S1Objective float64 `json:"s1_objective"`
	// S1RelaxedObjective is the LP-relaxation upper bound on S1Objective,
	// present only when gap comparison is enabled (-metrics-gap).
	S1RelaxedObjective *float64 `json:"s1_relaxed_objective,omitempty"`
	ScheduledLinks     int      `json:"scheduled_links"`

	// Traffic admission and delivery (packets).
	OfferedPkts   float64 `json:"offered_pkts"`
	AdmittedPkts  float64 `json:"admitted_pkts"`
	DroppedPkts   float64 `json:"dropped_pkts"`
	DeliveredPkts float64 `json:"delivered_pkts"`

	// Queue state at end of slot: data backlogs Q_i^s split BS/users,
	// virtual link queues Σ H_ij, and Σ|z_i| of the shifted batteries.
	DataBacklogBS    float64 `json:"data_backlog_bs"`
	DataBacklogUsers float64 `json:"data_backlog_users"`
	VirtualBacklogH  float64 `json:"virtual_backlog_h"`
	ShiftedAbsZ      float64 `json:"shifted_abs_z"`

	// Energy state and cost.
	BatteryWhBS      float64 `json:"battery_wh_bs"`
	BatteryWhUsers   float64 `json:"battery_wh_users"`
	GridWh           float64 `json:"grid_wh"`
	EnergyCost       float64 `json:"energy_cost"`
	PenaltyObjective float64 `json:"penalty_objective"`
	MarginalPriceWh  float64 `json:"marginal_price_wh"`
	RenewableWh      float64 `json:"renewable_wh"`
	DemandWh         float64 `json:"demand_wh"`
	TxEnergyWh       float64 `json:"tx_energy_wh"`
	DeficitWh        float64 `json:"deficit_wh"`

	// Degradation state (docs/ROBUSTNESS.md). Degraded is 1 when any
	// stage of the slot fell back to its safe action, else 0;
	// DegradedCauses joins the slot's cause labels with semicolons —
	// CSV-safe without quoting — and is empty on healthy slots.
	Degraded       int    `json:"degraded"`
	DegradedCauses string `json:"degraded_causes,omitempty"`
}

// Summary is the final record: the run-level aggregation of the registry
// (stage-time quantiles, totals). Metric naming conventions are documented
// in docs/METRICS.md; timing-derived entries contain "_ns" in their name.
type Summary struct {
	Type    string             `json:"type"` // always "summary"
	Slots   int                `json:"slots"`
	Metrics map[string]float64 `json:"metrics"`
}

// SlotFieldNames returns the JSON/CSV column names of SlotRecord in
// emission order. docs/METRICS.md documents exactly these names; a test
// cross-checks the two.
func SlotFieldNames() []string {
	names := make([]string, len(slotColumns))
	for i, c := range slotColumns {
		names[i] = c.name
	}
	return names
}

// slotColumns defines the CSV column order (identical to the JSON field
// order) and per-column accessors, avoiding reflection on the hot path.
var slotColumns = []struct {
	name string
	get  func(*SlotRecord) string
}{
	{"slot", func(r *SlotRecord) string { return itoa(r.Slot) }},
	{"s1_ns", func(r *SlotRecord) string { return itoa64(r.S1NS) }},
	{"s2_ns", func(r *SlotRecord) string { return itoa64(r.S2NS) }},
	{"s3_ns", func(r *SlotRecord) string { return itoa64(r.S3NS) }},
	{"queue_ns", func(r *SlotRecord) string { return itoa64(r.QueueNS) }},
	{"s4_ns", func(r *SlotRecord) string { return itoa64(r.S4NS) }},
	{"total_ns", func(r *SlotRecord) string { return itoa64(r.TotalNS) }},
	{"s1_lp_solves", func(r *SlotRecord) string { return itoa(r.S1LPSolves) }},
	{"s1_lp_iters", func(r *SlotRecord) string { return itoa(r.S1LPIters) }},
	{"s4_lp_solves", func(r *SlotRecord) string { return itoa(r.S4LPSolves) }},
	{"s4_lp_iters", func(r *SlotRecord) string { return itoa(r.S4LPIters) }},
	{"s1_objective", func(r *SlotRecord) string { return ftoa(r.S1Objective) }},
	{"s1_relaxed_objective", func(r *SlotRecord) string {
		if r.S1RelaxedObjective == nil {
			return ""
		}
		return ftoa(*r.S1RelaxedObjective)
	}},
	{"scheduled_links", func(r *SlotRecord) string { return itoa(r.ScheduledLinks) }},
	{"offered_pkts", func(r *SlotRecord) string { return ftoa(r.OfferedPkts) }},
	{"admitted_pkts", func(r *SlotRecord) string { return ftoa(r.AdmittedPkts) }},
	{"dropped_pkts", func(r *SlotRecord) string { return ftoa(r.DroppedPkts) }},
	{"delivered_pkts", func(r *SlotRecord) string { return ftoa(r.DeliveredPkts) }},
	{"data_backlog_bs", func(r *SlotRecord) string { return ftoa(r.DataBacklogBS) }},
	{"data_backlog_users", func(r *SlotRecord) string { return ftoa(r.DataBacklogUsers) }},
	{"virtual_backlog_h", func(r *SlotRecord) string { return ftoa(r.VirtualBacklogH) }},
	{"shifted_abs_z", func(r *SlotRecord) string { return ftoa(r.ShiftedAbsZ) }},
	{"battery_wh_bs", func(r *SlotRecord) string { return ftoa(r.BatteryWhBS) }},
	{"battery_wh_users", func(r *SlotRecord) string { return ftoa(r.BatteryWhUsers) }},
	{"grid_wh", func(r *SlotRecord) string { return ftoa(r.GridWh) }},
	{"energy_cost", func(r *SlotRecord) string { return ftoa(r.EnergyCost) }},
	{"penalty_objective", func(r *SlotRecord) string { return ftoa(r.PenaltyObjective) }},
	{"marginal_price_wh", func(r *SlotRecord) string { return ftoa(r.MarginalPriceWh) }},
	{"renewable_wh", func(r *SlotRecord) string { return ftoa(r.RenewableWh) }},
	{"demand_wh", func(r *SlotRecord) string { return ftoa(r.DemandWh) }},
	{"tx_energy_wh", func(r *SlotRecord) string { return ftoa(r.TxEnergyWh) }},
	{"deficit_wh", func(r *SlotRecord) string { return ftoa(r.DeficitWh) }},
	{"degraded", func(r *SlotRecord) string { return itoa(r.Degraded) }},
	{"degraded_causes", func(r *SlotRecord) string { return r.DegradedCauses }},
}

func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func itoa64(v int64) string { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string { return fmt.Sprintf("%g", v) }

// CanonicalizeJSONL rewrites a JSON-Lines metrics stream into a canonical
// form for determinism comparisons: every numeric field whose key contains
// "_ns" (the wall-clock timings, including summary aggregates like
// "stage_s1_ns_p95") is zeroed, and object keys are re-serialized sorted.
// Two runs of the same scenario and seed must canonicalize byte-identically
// — the regression test in internal/sim enforces it.
func CanonicalizeJSONL(data []byte) ([]byte, error) {
	var out bytes.Buffer
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			return nil, fmt.Errorf("metrics: canonicalize line %d: %w", i+1, err)
		}
		zeroTimings(obj)
		enc, err := json.Marshal(obj) // map keys marshal sorted
		if err != nil {
			return nil, err
		}
		out.Write(enc)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

// zeroTimings recursively zeroes numeric values under keys containing
// "_ns". It walks the keys in sorted order: updating a map mid-range is
// defined for existing keys, but a deterministic canonicalizer should not
// lean on that subtlety (and the mapiter analyzer flags it).
func zeroTimings(obj map[string]any) {
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch vv := obj[k].(type) {
		case map[string]any:
			zeroTimings(vv)
		default:
			if strings.Contains(k, "_ns") {
				if _, isNum := vv.(float64); isNum {
					obj[k] = 0.0
				}
			}
		}
	}
}
