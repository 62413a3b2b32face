package cluster

import (
	"reflect"
	"testing"

	"greencell/internal/sim"
)

// fullSpec sets every ScenarioSpec field to a non-zero value.
func fullSpec() sim.ScenarioSpec {
	neighbors := 5
	gate := true
	return sim.ScenarioSpec{
		Preset:          "urban",
		Architecture:    "multihop-nr",
		Scheduler:       "greedy",
		V:               2e5,
		Lambda:          0.0007,
		SlotSeconds:     0.5,
		Slots:           12,
		Seed:            42,
		Users:           18,
		Sessions:        3,
		UplinkSessions:  1,
		Neighbors:       &neighbors,
		EnergyGate:      &gate,
		TrackDelay:      true,
		CheckInvariants: true,
		FaultProb:       0.01,
		Faults:          map[string]float64{"s1_infeasible": 0.05},
		BudgetIters:     500,
		SlotDeadlineMS:  250,
		Dist:            true,
		NetLoss:         0.02,
		NetLatency:      0.03,
		NetLatencyMax:   2,
		NetDup:          0.04,
		NetReorder:      1,
		NetPartition:    []int{3},
	}
}

// TestCellKeyPinned pins the content address of two cells to the digests
// their specs had while ScenarioSpec still carried the retired
// warm_start_lp field: dropping an omitempty field that a spec leaves
// unset changes no encoding, so result caches already on disk stay valid.
// A digest change here orphans every cached cell; if one is ever
// intended, it comes with a metrics.SchemaVersion bump.
func TestCellKeyPinned(t *testing.T) {
	full := fullSpec()
	v := reflect.ValueOf(full)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fullSpec leaves ScenarioSpec.%s unset", v.Type().Field(i).Name)
		}
	}
	for _, tc := range []struct {
		name string
		spec sim.ScenarioSpec
		seed int64
		want string
	}{
		{"default-paper", sim.ScenarioSpec{}, 1, "b732b343f9074da45f26b0ca1ff4705db43aa6f2e27ac83ad637c80b03eec0fb"},
		{"every-field", full, 7, "384720df8adf86b5ed303e34a355ca7bd0087274d0b743977678a1a5043e40ad"},
	} {
		got, err := CellKey(tc.spec, tc.seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: CellKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
