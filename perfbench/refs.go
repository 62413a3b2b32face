package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"greencell/internal/sim"
)

// refs.json pins, per scenario seed, the AvgEnergyCost and DeliveredPkts
// the paper's algorithm computes at the parent commit. Every run checks its
// outputs against them; regenerate only as a deliberate decision, with
//
//	go run . -gen-refs refs.json      (from perfbench/)
//
//go:embed refs.json
var refsJSON []byte

// Pool sizes of the pinned table: the paper-sf seeds, and the urban seeds
// that urban-greedy-dist runs and fleet-resweep windows slide over.
const (
	paperRefSeeds = 16
	urbanRefSeeds = 512
)

// ref is one seed's pinned outcome.
type ref struct {
	Seed          int64   `json:"seed"`
	AvgEnergyCost float64 `json:"avg_energy_cost"`
	DeliveredPkts float64 `json:"delivered_pkts"`
}

// refTable holds the references of the paper preset (default S1) and of
// the urban preset with the greedy S1, both on the monolith.
type refTable struct {
	Slots int   `json:"slots"`
	Paper []ref `json:"paper"`
	Urban []ref `json:"urban_greedy"`
}

func paperSpec(seed int64, slots int) sim.ScenarioSpec {
	return sim.ScenarioSpec{Preset: "paper", Slots: slots, Seed: seed}
}

func urbanSpec(seed int64, slots int, dist bool) sim.ScenarioSpec {
	return sim.ScenarioSpec{Preset: "urban", Scheduler: "greedy", Slots: slots, Seed: seed, Dist: dist}
}

func loadRefs() (*refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	if len(t.Paper) != paperRefSeeds || len(t.Urban) != urbanRefSeeds {
		return nil, fmt.Errorf("refs.json: %d paper and %d urban seeds, want %d and %d",
			len(t.Paper), len(t.Urban), paperRefSeeds, urbanRefSeeds)
	}
	return &t, nil
}

// computeRefs runs seeds 1..paperN of the paper preset and 1..urbanN of
// the urban greedy preset on the monolith, two at a time.
func computeRefs(slots, paperN, urbanN int) (*refTable, error) {
	t := &refTable{Slots: slots, Paper: make([]ref, paperN), Urban: make([]ref, urbanN)}
	type item struct {
		spec sim.ScenarioSpec
		out  *ref
	}
	var items []item
	for i := range t.Paper {
		items = append(items, item{paperSpec(int64(i+1), slots), &t.Paper[i]})
	}
	for i := range t.Urban {
		items = append(items, item{urbanSpec(int64(i+1), slots, false), &t.Urban[i]})
	}
	work := make(chan item)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := range work {
				if errs[w] != nil {
					continue
				}
				sc, err := it.spec.Scenario()
				if err == nil {
					var res *sim.Result
					res, err = sim.RunCtx(context.Background(), sc)
					if err == nil {
						*it.out = ref{Seed: it.spec.Seed, AvgEnergyCost: res.AvgEnergyCost.Value(), DeliveredPkts: res.DeliveredPkts}
					}
				}
				errs[w] = err
			}
		}(w)
	}
	for _, it := range items {
		work <- it
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func writeRefs(path string) error {
	t, err := computeRefs(100, paperRefSeeds, urbanRefSeeds)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// relClose reports whether got matches want within 1e-9 relative.
func relClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1e-300)
}

// check compares one seed's outcome with its reference.
func (r ref) check(seed int64, cost, delivered float64) error {
	if r.Seed != seed || !relClose(cost, r.AvgEnergyCost) || !relClose(delivered, r.DeliveredPkts) {
		return fmt.Errorf("seed %d: cost %.17g delivered %.17g, want seed %d cost %.17g delivered %.17g",
			seed, cost, delivered, r.Seed, r.AvgEnergyCost, r.DeliveredPkts)
	}
	return nil
}
