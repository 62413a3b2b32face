package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
)

// Tiny sizes for smoke runs: 5-slot horizons over a few seeds, with
// references computed for exactly that size.
const (
	tinySlots      = 5
	tinyPaperSeeds = 3
	tinyUrbanSeeds = 8
)

var (
	tinyOnce sync.Once
	tinyT    *refTable
	tinyErr  error
)

// tinyRefs returns a fresh copy of the tiny reference table, so a test
// may tamper with it.
func tinyRefs(t *testing.T) *refTable {
	t.Helper()
	tinyOnce.Do(func() { tinyT, tinyErr = computeRefs(tinySlots, tinyPaperSeeds, tinyUrbanSeeds) })
	if tinyErr != nil {
		t.Fatalf("computing tiny references: %v", tinyErr)
	}
	c := *tinyT
	c.Paper = append([]ref(nil), tinyT.Paper...)
	c.Urban = append([]ref(nil), tinyT.Urban...)
	return &c
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	o := options{
		workload: workload, seed: 3, seconds: 0.2, trace: trace, workDir: t.TempDir(),
		slots: tinySlots, refs: tinyRefs(t),
	}
	switch workload {
	case "paper-sf":
		o.pool = tinyPaperSeeds
	case "urban-greedy-dist":
		o.pool = tinyUrbanSeeds
	default:
		o.window = 2
	}
	return o
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that exactly the declared metrics are printed, each with its
// unit, and that every output check passed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := workloads[w](tinyOptions(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatalf("%s: printing: %v", w, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w, err)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(last.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := last.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, name, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want positive", w, name, m.Value)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s trace=%v: %s missing from the printed lines", w, trace, name)
				}
			}
		}
	}
}

// TestTamperedReference checks that a reference off by one part in a
// million fails the output check on both kinds of workload.
func TestTamperedReference(t *testing.T) {
	for _, w := range []string{"paper-sf", "fleet-resweep"} {
		o := tinyOptions(t, w, false)
		for i := range o.refs.Paper {
			o.refs.Paper[i].AvgEnergyCost *= 1 + 1e-6
		}
		for i := range o.refs.Urban {
			o.refs.Urban[i].DeliveredPkts *= 1 + 1e-6
		}
		res, err := workloads[w](o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want every operation failed", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestPinnedReferences reruns seed 1 of each pinned table at full size,
// the urban one on the distributed controller, against refs.json.
func TestPinnedReferences(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		o    options
	}{
		{"paper-sf", options{workload: "paper-sf", slots: refs.Slots, pool: 1, refs: refs}},
		{"urban-greedy-dist", options{workload: "urban-greedy-dist", slots: refs.Slots, pool: 1, refs: refs}},
	} {
		p := newLibPhase(libraryOf(tc.o), nil)
		p.run(1)
		if p.failed != 0 || p.attempted != 1 {
			t.Errorf("%s: seed 1 failed its pinned reference", tc.name)
		}
	}
}

// TestPyQuartiles pins the quartiles to Python's statistics.quantiles.
func TestPyQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := pyQuartiles(tc.in); got != tc.want {
			t.Errorf("pyQuartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
