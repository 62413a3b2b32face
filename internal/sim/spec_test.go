package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestSpecRoundTrip: a fully-populated spec survives encode → decode
// unchanged, and its JSON carries only set fields.
func TestSpecRoundTrip(t *testing.T) {
	six := 6
	gate := false
	spec := ScenarioSpec{
		Preset:          "urban",
		Architecture:    "onehop-r",
		Scheduler:       "greedy",
		V:               5e5,
		Lambda:          0.001,
		SlotSeconds:     30,
		Slots:           50,
		Seed:            7,
		Users:           12,
		Sessions:        3,
		UplinkSessions:  1,
		Neighbors:       &six,
		EnergyGate:      &gate,
		TrackDelay:      true,
		CheckInvariants: true,
		FaultProb:       0.01,
		Faults:          map[string]float64{"s1_infeasible": 0.5},
		BudgetIters:     2000,
		SlotDeadlineMS:  250,
	}
	data, err := EncodeSpec(spec)
	if err != nil {
		t.Fatalf("EncodeSpec: %v", err)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v", spec, back)
	}

	// The zero spec encodes to the empty object: unset fields stay unset.
	data, err = EncodeSpec(ScenarioSpec{})
	if err != nil {
		t.Fatalf("EncodeSpec zero: %v", err)
	}
	if string(data) != "{}" {
		t.Fatalf("zero spec encodes to %s, want {}", data)
	}
}

// TestSpecScenarioMatchesHandBuilt: materializing a spec produces the same
// simulation as configuring the Scenario by hand — results are compared,
// since Scenario holds funcs that defeat DeepEqual.
func TestSpecScenarioMatchesHandBuilt(t *testing.T) {
	spec := ScenarioSpec{Preset: "paper", Slots: 8, Seed: 3, V: 2e5}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	got, err := Run(sc)
	if err != nil {
		t.Fatalf("Run(spec scenario): %v", err)
	}

	want := Paper()
	want.Slots = 8
	want.Seed = 3
	want.V = 2e5
	want.KeepTraces = false
	ref, err := Run(want)
	if err != nil {
		t.Fatalf("Run(hand-built): %v", err)
	}
	if got.AvgEnergyCost != ref.AvgEnergyCost ||
		got.DeliveredPkts != ref.DeliveredPkts ||
		got.AdmittedPkts != ref.AdmittedPkts {
		t.Fatalf("spec scenario diverges from hand-built: got %+v, want %+v", got, ref)
	}
}

// TestSpecDefaultsArePreset: the zero spec is the paper scenario (traces
// off), and unset fields keep preset values after an overlay.
func TestSpecDefaultsArePreset(t *testing.T) {
	sc, err := ScenarioSpec{}.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	ref := Paper()
	if sc.V != ref.V || sc.Lambda != ref.Lambda || sc.Slots != ref.Slots ||
		sc.Seed != ref.Seed || sc.NumSessions != ref.NumSessions ||
		sc.Topology.NumUsers != ref.Topology.NumUsers ||
		sc.Topology.MaxNeighbors != ref.Topology.MaxNeighbors {
		t.Fatalf("zero spec is not the paper preset: %+v", sc)
	}
	if sc.KeepTraces {
		t.Fatal("spec scenarios must not keep traces by default")
	}

	sc, err = ScenarioSpec{Preset: "urban", Slots: 9}.Scenario()
	if err != nil {
		t.Fatalf("urban: %v", err)
	}
	if sc.NumSessions != Urban().NumSessions || sc.Slots != 9 {
		t.Fatalf("overlay clobbered preset defaults: sessions=%d slots=%d", sc.NumSessions, sc.Slots)
	}
}

// TestSpecValidationNamesField: every rejection wraps ErrSpec and names
// the offending field.
func TestSpecValidationNamesField(t *testing.T) {
	cases := []struct {
		spec  ScenarioSpec
		field string
	}{
		{ScenarioSpec{Preset: "nope"}, "preset"},
		{ScenarioSpec{Architecture: "mesh"}, "architecture"},
		{ScenarioSpec{Scheduler: "oracle"}, "scheduler"},
		{ScenarioSpec{V: -1}, "v"},
		{ScenarioSpec{Lambda: -0.1}, "lambda"},
		{ScenarioSpec{SlotSeconds: -2}, "slot_seconds"},
		{ScenarioSpec{Slots: -1}, "slots"},
		{ScenarioSpec{Users: -1}, "users"},
		{ScenarioSpec{Sessions: -1}, "sessions"},
		{ScenarioSpec{UplinkSessions: -1}, "uplink_sessions"},
		{ScenarioSpec{FaultProb: 1.5}, "fault_prob"},
		{ScenarioSpec{Faults: map[string]float64{"bogus_site": 0.1}}, "faults"},
		{ScenarioSpec{Faults: map[string]float64{"latency": 2}}, "faults"},
		{ScenarioSpec{BudgetIters: -1}, "budget_iters"},
		{ScenarioSpec{SlotDeadlineMS: -1}, "slot_deadline_ms"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("spec %+v: expected a validation error naming %q", c.spec, c.field)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("spec %+v: error %v does not wrap ErrSpec", c.spec, err)
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("spec %+v: error %q does not name field %q", c.spec, err, c.field)
		}
	}
}

// TestDecodeSpecRejectsUnknownFields: a typoed knob fails loudly.
func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	_, err := DecodeSpec([]byte(`{"slotz": 10}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !errors.Is(err, ErrSpec) {
		t.Fatalf("error %v does not wrap ErrSpec", err)
	}
	if !strings.Contains(err.Error(), "slotz") {
		t.Fatalf("error %q does not name the unknown field", err)
	}

	// Invalid values are caught at decode time too.
	if _, err := DecodeSpec([]byte(`{"slots": -3}`)); err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("decode of invalid spec: err = %v, want one naming slots", err)
	}
}

// TestDecodeSpecRejectsRetiredWarmStartLP: the warm_start_lp knob went
// with the warm-started LP path. A spec that still asks for it fails by
// name rather than quietly running the default solver path.
func TestDecodeSpecRejectsRetiredWarmStartLP(t *testing.T) {
	_, err := DecodeSpec([]byte(`{"slots": 8, "warm_start_lp": true}`))
	if err == nil {
		t.Fatal("warm_start_lp accepted")
	}
	if !errors.Is(err, ErrSpec) || !strings.Contains(err.Error(), "warm_start_lp") {
		t.Fatalf("error %v: want ErrSpec naming warm_start_lp", err)
	}
}

// TestSpecFaultsAndBudget: the fault and budget knobs reach the scenario.
func TestSpecFaultsAndBudget(t *testing.T) {
	spec := ScenarioSpec{
		FaultProb:      0.02,
		Faults:         map[string]float64{"latency": 0.5},
		BudgetIters:    123,
		SlotDeadlineMS: 40,
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if sc.Faults == nil {
		t.Fatal("faults not enabled")
	}
	if p := sc.Faults.Probability["latency"]; p != 0.5 {
		t.Fatalf("latency probability = %g, want the per-site override 0.5", p)
	}
	if p := sc.Faults.Probability["s2_fail"]; p != 0.02 {
		t.Fatalf("s2_fail probability = %g, want the uniform 0.02", p)
	}
	if sc.Budget.MaxLPIterations != 123 {
		t.Fatalf("MaxLPIterations = %d, want 123", sc.Budget.MaxLPIterations)
	}
	if ms := sc.Budget.SlotDeadline.Milliseconds(); ms != 40 {
		t.Fatalf("SlotDeadline = %v, want 40ms", sc.Budget.SlotDeadline)
	}
}

// TestSpecDistRoundTrip: the distributed-runner knobs survive the wire,
// materialize onto the Scenario, and are validated — net_* knobs without
// dist, out-of-range probabilities, and dist+track_delay all fail with
// the offending field named.
func TestSpecDistRoundTrip(t *testing.T) {
	spec := ScenarioSpec{
		Preset:        "paper",
		Slots:         20,
		Dist:          true,
		NetLoss:       0.05,
		NetLatency:    0.1,
		NetLatencyMax: 2,
		NetDup:        0.01,
		NetReorder:    1,
		NetPartition:  []int{3, 5},
	}
	data, err := EncodeSpec(spec)
	if err != nil {
		t.Fatalf("EncodeSpec: %v", err)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v", spec, back)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if !sc.Dist || sc.NetLoss != 0.05 || sc.NetLatency != 0.1 || sc.NetLatencyMax != 2 ||
		sc.NetDup != 0.01 || sc.NetReorder != 1 || !reflect.DeepEqual(sc.NetPartition, []int{3, 5}) {
		t.Errorf("spec did not materialize onto the scenario: %+v", sc)
	}

	for field, bad := range map[string]ScenarioSpec{
		"net_loss":        {Dist: true, NetLoss: 1.5},
		"net_latency":     {Dist: true, NetLatency: -0.1},
		"net_dup":         {Dist: true, NetDup: 2},
		"net_latency_max": {Dist: true, NetLatencyMax: -1},
		"net_reorder":     {Dist: true, NetReorder: -2},
		"net_partition":   {Dist: true, NetPartition: []int{-1}},
		"dist":            {NetLoss: 0.1}, // net_* without dist
	} {
		err := bad.Validate()
		if err == nil {
			t.Errorf("%s: invalid spec accepted: %+v", field, bad)
			continue
		}
		if !errors.Is(err, ErrSpec) || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name the field", field, err)
		}
	}
	if err := (ScenarioSpec{Dist: true, TrackDelay: true}).Validate(); err == nil {
		t.Errorf("dist+track_delay accepted")
	}
}
