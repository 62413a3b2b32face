package energymgmt

import (
	"errors"
	"math"
	"testing"

	"greencell/internal/energy"
	"greencell/internal/rng"
	"greencell/internal/units"
)

func cheapCost() energy.CostFunc { return energy.Quadratic{A: 0.01, B: 0.1} }

// checkFeasible validates every per-node constraint of S4 on a decision.
func checkFeasible(t *testing.T, req *Request, dec *Decision) {
	t.Helper()
	const tol = 1e-6
	for i, n := range req.Nodes {
		nd := dec.Nodes[i]
		if nd.RenewToDemand < -tol || nd.RenewToBattery < -tol || nd.GridToDemand < -tol ||
			nd.GridToBattery < -tol || nd.DischargeWh < -tol || nd.DeficitWh < -tol {
			t.Fatalf("node %d: negative flow: %+v", i, nd)
		}
		// (3) with spill: r + c^r <= R.
		if nd.RenewToDemand+nd.RenewToBattery > n.RenewableWh+tol {
			t.Fatalf("node %d: renewable overdrawn: %+v vs R=%v", i, nd, n.RenewableWh)
		}
		// (9): no simultaneous charge and discharge.
		if nd.ChargeWh() > tol && nd.DischargeWh > tol {
			t.Fatalf("node %d: simultaneous charge %v and discharge %v", i, nd.ChargeWh(), nd.DischargeWh)
		}
		// (11)/(12): headrooms.
		if nd.ChargeWh() > n.ChargeHeadroomWh+tol {
			t.Fatalf("node %d: charge %v exceeds headroom %v", i, nd.ChargeWh(), n.ChargeHeadroomWh)
		}
		if nd.DischargeWh > n.DischargeHeadroomWh+tol {
			t.Fatalf("node %d: discharge %v exceeds headroom %v", i, nd.DischargeWh, n.DischargeHeadroomWh)
		}
		// (14): grid cap (and no grid when disconnected).
		gridCap := units.Energy(0)
		if n.GridConnected {
			gridCap = n.GridCapWh
		}
		if nd.GridDrawWh() > gridCap+tol {
			t.Fatalf("node %d: grid draw %v exceeds cap %v", i, nd.GridDrawWh(), gridCap)
		}
		// Demand balance: g + r + d + deficit = E.
		served := nd.GridToDemand + nd.RenewToDemand + nd.DischargeWh + nd.DeficitWh
		if math.Abs((served - n.DemandWh).Wh()) > tol {
			t.Fatalf("node %d: demand balance %v != %v", i, served, n.DemandWh)
		}
	}
}

// objective evaluates the penalized S4 objective of an arbitrary decision.
func objective(req *Request, nodes []NodeDecision, pen float64) float64 {
	obj := 0.0
	p := units.Energy(0)
	for i, n := range req.Nodes {
		nd := nodes[i]
		obj += n.Z.Wh()*(nd.ChargeWh()-nd.DischargeWh).Wh() + pen*nd.DeficitWh.Wh()
		if n.IsBS {
			p += nd.GridDrawWh()
		}
	}
	return obj + req.V*req.Cost.Eval(p).Value()
}

func TestServesDemandFromRenewableFirst(t *testing.T) {
	req := &Request{
		Nodes: []NodeInput{{
			Z: 0, DemandWh: 3, RenewableWh: 10,
			ChargeHeadroomWh: 5, DischargeHeadroomWh: 2,
			GridConnected: true, GridCapWh: 10, IsBS: true,
		}},
		V:    1,
		Cost: cheapCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	nd := dec.Nodes[0]
	if math.Abs(nd.RenewToDemand.Wh()-3) > 1e-6 {
		t.Errorf("renewable to demand = %v, want 3 (free beats grid)", nd.RenewToDemand)
	}
	if nd.GridToDemand > 1e-6 || nd.DeficitWh > 1e-6 {
		t.Errorf("grid/deficit used despite ample renewable: %+v", nd)
	}
}

func TestChargesWhenShiftedLevelNegative(t *testing.T) {
	// Very negative z: charging is worth far more than grid energy costs.
	req := &Request{
		Nodes: []NodeInput{{
			Z: -1e6, DemandWh: 1, RenewableWh: 0,
			ChargeHeadroomWh: 4, DischargeHeadroomWh: 2,
			GridConnected: true, GridCapWh: 100, IsBS: true,
		}},
		V:    1,
		Cost: cheapCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	nd := dec.Nodes[0]
	if math.Abs(nd.GridToBattery.Wh()-4) > 1e-6 {
		t.Errorf("grid to battery = %v, want full headroom 4", nd.GridToBattery)
	}
	if nd.DischargeWh > 1e-9 {
		t.Errorf("discharge = %v, want 0 (complementarity with charging)", nd.DischargeWh)
	}
}

func TestDischargesWhenShiftedLevelPositive(t *testing.T) {
	// Positive z: draining the battery both serves demand and improves the
	// objective; grid should stay untouched.
	req := &Request{
		Nodes: []NodeInput{{
			Z: 5, DemandWh: 2, RenewableWh: 0,
			ChargeHeadroomWh: 4, DischargeHeadroomWh: 10,
			GridConnected: true, GridCapWh: 100, IsBS: true,
		}},
		V:    1,
		Cost: cheapCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	nd := dec.Nodes[0]
	if math.Abs(nd.DischargeWh.Wh()-2) > 1e-6 {
		t.Errorf("discharge = %v, want demand 2", nd.DischargeWh)
	}
	if nd.GridDrawWh() > 1e-9 || nd.ChargeWh() > 1e-9 {
		t.Errorf("grid or charge used despite positive z: %+v", nd)
	}
}

func TestDeficitWhenNothingAvailable(t *testing.T) {
	req := &Request{
		Nodes: []NodeInput{{
			Z: -1, DemandWh: 5, RenewableWh: 1,
			ChargeHeadroomWh: 0, DischargeHeadroomWh: 2,
			GridConnected: false, GridCapWh: 100, IsBS: false,
		}},
		V:    1,
		Cost: cheapCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	nd := dec.Nodes[0]
	// 1 renewable + 2 discharge leaves 2 unserved.
	if math.Abs(nd.DeficitWh.Wh()-2) > 1e-6 {
		t.Errorf("deficit = %v, want 2", nd.DeficitWh)
	}
	if math.Abs(dec.TotalDeficitWh.Wh()-2) > 1e-6 {
		t.Errorf("total deficit = %v, want 2", dec.TotalDeficitWh)
	}
}

func TestUserGridDrawOutsideCost(t *testing.T) {
	// A connected user with huge demand draws grid freely: P stays 0.
	req := &Request{
		Nodes: []NodeInput{{
			Z: 0, DemandWh: 50, RenewableWh: 0,
			ChargeHeadroomWh: 0, DischargeHeadroomWh: 0,
			GridConnected: true, GridCapWh: 100, IsBS: false,
		}},
		V:    1e6,
		Cost: energy.PaperCost(),
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	if dec.GridTotalWh != 0 {
		t.Errorf("P = %v, want 0 (users are outside f)", dec.GridTotalWh)
	}
	if math.Abs(dec.Nodes[0].GridToDemand.Wh()-50) > 1e-6 {
		t.Errorf("user grid draw = %v, want 50", dec.Nodes[0].GridToDemand)
	}
	if dec.EnergyCost != 0 {
		t.Errorf("cost = %v, want 0", dec.EnergyCost)
	}
}

func TestQuadraticCostSpreadsAcrossStations(t *testing.T) {
	// Two identical BSs with demand: the convex f makes any split cost the
	// same only through total P; verify the total draw equals total demand
	// (z=0: no charging incentive) and the reported cost matches f(P).
	cost := energy.Quadratic{A: 1}
	req := &Request{
		Nodes: []NodeInput{
			{DemandWh: 3, GridConnected: true, GridCapWh: 10, IsBS: true},
			{DemandWh: 5, GridConnected: true, GridCapWh: 10, IsBS: true},
		},
		V:    2,
		Cost: cost,
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, req, dec)
	if math.Abs(dec.GridTotalWh.Wh()-8) > 1e-6 {
		t.Errorf("P = %v, want 8", dec.GridTotalWh)
	}
	if math.Abs((dec.EnergyCost - cost.Eval(dec.GridTotalWh)).Value()) > 1e-9 {
		t.Errorf("EnergyCost %v != f(P) %v", dec.EnergyCost, cost.Eval(dec.GridTotalWh))
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(&Request{V: 1}); err == nil {
		t.Error("nil cost accepted")
	}
	if _, err := Solve(&Request{V: -1, Cost: cheapCost()}); err == nil {
		t.Error("negative V accepted")
	}
	if _, err := Solve(&Request{
		V: 1, Cost: cheapCost(),
		Nodes: []NodeInput{{DemandWh: -1}},
	}); err == nil {
		t.Error("negative demand accepted")
	}
}

// randomRequest builds a random S4 instance.
func randomRequest(src *rng.Source, nodes int) *Request {
	req := &Request{
		V:    math.Pow(10, src.Uniform(0, 5)),
		Cost: energy.Quadratic{A: src.Uniform(0.01, 1), B: src.Uniform(0, 1)},
	}
	for i := 0; i < nodes; i++ {
		req.Nodes = append(req.Nodes, NodeInput{
			Z:                   units.Wh(src.Uniform(-20, 5) * req.V),
			DemandWh:            units.Wh(src.Uniform(0, 5)),
			RenewableWh:         units.Wh(src.Uniform(0, 4)),
			ChargeHeadroomWh:    units.Wh(src.Uniform(0, 3)),
			DischargeHeadroomWh: units.Wh(src.Uniform(0, 3)),
			GridConnected:       src.Bernoulli(0.8),
			GridCapWh:           units.Wh(src.Uniform(0, 6)),
			IsBS:                src.Bernoulli(0.6),
		})
	}
	return req
}

// randomFeasible samples a random feasible decision for req.
func randomFeasible(src *rng.Source, req *Request) []NodeDecision {
	out := make([]NodeDecision, len(req.Nodes))
	for i, n := range req.Nodes {
		var nd NodeDecision
		gridCap := units.Energy(0)
		if n.GridConnected {
			gridCap = n.GridCapWh
		}
		if src.Bernoulli(0.5) { // charge mode
			nd.RenewToBattery = units.Wh(src.Uniform(0, math.Min(n.RenewableWh.Wh(), n.ChargeHeadroomWh.Wh())))
			nd.GridToBattery = units.Wh(src.Uniform(0, math.Min(gridCap.Wh(), (n.ChargeHeadroomWh-nd.RenewToBattery).Wh())))
		} else {
			nd.DischargeWh = units.Wh(src.Uniform(0, math.Min(n.DischargeHeadroomWh.Wh(), n.DemandWh.Wh())))
		}
		// Serve demand: renewable, then grid, then deficit.
		need := n.DemandWh - nd.DischargeWh
		nd.RenewToDemand = units.Wh(math.Min(need.Wh(), (n.RenewableWh - nd.RenewToBattery).Wh()))
		need -= nd.RenewToDemand
		nd.GridToDemand = units.Wh(math.Min(need.Wh(), (gridCap - nd.GridToBattery).Wh()))
		need -= nd.GridToDemand
		nd.DeficitWh = need
		out[i] = nd
	}
	return out
}

// TestDominatesRandomFeasible checks on random instances that the solver's
// decision is at least as good as hundreds of random feasible decisions —
// the optimality spot-check that replaces CPLEX.
func TestDominatesRandomFeasible(t *testing.T) {
	src := rng.New(404)
	for trial := 0; trial < 60; trial++ {
		req := randomRequest(src, 1+src.Intn(4))
		dec, err := Solve(req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkFeasible(t, req, dec)

		// Recover the penalty the solver used.
		pMax := units.Energy(0)
		maxAbsZ := 0.0
		for _, n := range req.Nodes {
			if n.IsBS && n.GridConnected {
				pMax += n.GridCapWh
			}
			if a := math.Abs(n.Z.Wh()); a > maxAbsZ {
				maxAbsZ = a
			}
		}
		pen := 10*(maxAbsZ+req.V*req.Cost.MaxDeriv(pMax).PerWh()) + 1e6

		ours := objective(req, dec.Nodes, pen)
		for probe := 0; probe < 300; probe++ {
			cand := randomFeasible(src, req)
			if obj := objective(req, cand, pen); obj < ours-1e-6*(1+math.Abs(ours)) {
				t.Fatalf("trial %d probe %d: random feasible %v beats solver %v",
					trial, probe, obj, ours)
			}
		}
	}
}

// TestObjectiveFieldsConsistent verifies the Decision aggregates match the
// per-node rows.
func TestObjectiveFieldsConsistent(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 40; trial++ {
		req := randomRequest(src, 1+src.Intn(5))
		dec, err := Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		p := units.Energy(0)
		deficit := units.Energy(0)
		zsum := 0.0
		for i, n := range req.Nodes {
			nd := dec.Nodes[i]
			if n.IsBS {
				p += nd.GridDrawWh()
			}
			deficit += nd.DeficitWh
			zsum += n.Z.Wh() * (nd.ChargeWh() - nd.DischargeWh).Wh()
		}
		if math.Abs((p - dec.GridTotalWh).Wh()) > 1e-9 {
			t.Fatalf("GridTotalWh %v != recomputed %v", dec.GridTotalWh, p)
		}
		if math.Abs((deficit - dec.TotalDeficitWh).Wh()) > 1e-9 {
			t.Fatalf("TotalDeficitWh %v != recomputed %v", dec.TotalDeficitWh, deficit)
		}
		want := zsum + req.V*req.Cost.Eval(p).Value()
		if math.Abs(want-dec.Objective) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("Objective %v != recomputed %v", dec.Objective, want)
		}
	}
}

func TestMarginalPrice(t *testing.T) {
	cost := energy.Quadratic{A: 1, B: 0.5}
	req := &Request{
		Nodes: []NodeInput{{DemandWh: 3, GridConnected: true, GridCapWh: 10, IsBS: true}},
		V:     2,
		Cost:  cost,
	}
	dec, err := Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	want := cost.Deriv(dec.GridTotalWh).Scale(2)
	if math.Abs((dec.MarginalPriceWh - want).PerWh()) > 1e-9 {
		t.Errorf("MarginalPriceWh = %v, want %v", dec.MarginalPriceWh, want)
	}
}

// TestIterationLimitSemantics checks the solve budget: a one-iteration
// budget surfaces as the typed ErrIterationLimit, and the same request
// without a budget solves to a feasible decision.
func TestIterationLimitSemantics(t *testing.T) {
	src := rng.New(642)
	req := randomRequest(src, 6)
	req.MaxLPIterations = 1
	if _, err := Solve(req); !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("limited solve: got %v, want ErrIterationLimit", err)
	}
	req.MaxLPIterations = 0
	dec, err := Solve(req)
	if err != nil {
		t.Fatalf("unbudgeted solve: %v", err)
	}
	checkFeasible(t, req, dec)
}
