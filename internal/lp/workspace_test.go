package lp

import (
	"fmt"
	"math"
	"testing"

	"greencell/internal/rng"
)

// solutionBits is a solution's full bit pattern, copied out of it.
type solutionBits struct {
	status     Status
	iterations int
	objective  uint64
	x, y       []uint64
}

// bitsOf copies out the bits of sol, a solution of a problem with ncons
// constraints.
func bitsOf(sol *Solution, ncons int) solutionBits {
	b := solutionBits{status: sol.Status, iterations: sol.Iterations, objective: math.Float64bits(sol.Objective)}
	for _, v := range sol.Values() {
		b.x = append(b.x, math.Float64bits(v))
	}
	for i := 0; i < ncons; i++ {
		b.y = append(b.y, math.Float64bits(sol.Dual(i)))
	}
	return b
}

func (b solutionBits) equal(o solutionBits) bool {
	if b.status != o.status || b.iterations != o.iterations || b.objective != o.objective ||
		len(b.x) != len(o.x) || len(b.y) != len(o.y) {
		return false
	}
	for i := range b.x {
		if b.x[i] != o.x[i] {
			return false
		}
	}
	for i := range b.y {
		if b.y[i] != o.y[i] {
			return false
		}
	}
	return true
}

// requireFreshMatch solves a clone of p, whose workspace is new, and
// requires sol to match it bit for bit.
func requireFreshMatch(t *testing.T, label string, p *Problem, sol *Solution) solutionBits {
	t.Helper()
	fresh, err := p.Clone().Solve()
	if err != nil {
		t.Fatalf("%s: fresh solve: %v", label, err)
	}
	got, want := bitsOf(sol, p.NumConstraints()), bitsOf(fresh, p.NumConstraints())
	if !got.equal(want) {
		t.Fatalf("%s: reused workspace gave %+v, fresh workspace %+v", label, got, want)
	}
	return got
}

// addRandomRows appends m random <= rows over every variable of p that
// hold at the all-lower-bounds point.
func addRandomRows(src *rng.Source, p *Problem, m int) {
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < p.NumVars(); j++ {
			if src.Bernoulli(0.6) {
				terms = append(terms, Term{VarID(j), src.Uniform(-1, 2)})
			}
		}
		p.AddConstraint("r", LE, src.Uniform(1, 5), terms...)
	}
}

// TestWorkspaceGrowShrinkGrow solves one Problem while it grows, shrinks
// under presolve as variables are pinned, and grows past its first size,
// and checks every result against a solve in a fresh workspace. Earlier
// Solutions must not change as later solves reuse the workspace.
func TestWorkspaceGrowShrinkGrow(t *testing.T) {
	src := rng.New(21)
	p := NewProblem(Maximize)
	for j := 0; j < 8; j++ {
		p.AddVar("x", 0, 1+src.Uniform(0, 2), src.Uniform(0, 5))
	}
	addRandomRows(src, p, 6)

	type kept struct {
		label string
		sol   *Solution
		bits  solutionBits
		ncons int
	}
	var history []kept
	solve := func(label string) {
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sol.Status == Optimal {
			if err := certify(p, sol); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		history = append(history, kept{label, sol, requireFreshMatch(t, label, p, sol), p.NumConstraints()})
	}

	solve("small")
	for j := 0; j < 30; j++ {
		p.AddVar("x", 0, 1+src.Uniform(0, 2), src.Uniform(0, 5))
	}
	addRandomRows(src, p, 25)
	solve("grown")
	for j := 0; j < p.NumVars(); j += 2 {
		p.SetVarBounds(VarID(j), 0, 0)
	}
	solve("shrunk by presolve")
	for j := 0; j < p.NumVars(); j++ {
		if j%3 != 0 {
			p.SetVarBounds(VarID(j), 0, 0)
		}
	}
	solve("shrunk further")
	for j := 0; j < p.NumVars(); j++ {
		p.SetVarBounds(VarID(j), 0, 2)
	}
	for j := 0; j < 20; j++ {
		p.AddVar("x", -1, 1, src.Uniform(-2, 5))
	}
	addRandomRows(src, p, 30)
	p.AddConstraint("floor", GE, -3, Term{0, 1}, Term{1, 1})
	solve("grown past the first size")

	for _, h := range history {
		if got := bitsOf(h.sol, h.ncons); !got.equal(h.bits) {
			t.Fatalf("%s: solution changed after later solves: %+v, was %+v", h.label, got, h.bits)
		}
	}
}

// TestPresolveCacheWorkspaceGrowShrinkGrow does the same through one
// PresolveCache: each solve is of a freshly built Problem, some of a
// shape the cache holds (refresh) and some of a new shape (rebuild).
func TestPresolveCacheWorkspaceGrowShrinkGrow(t *testing.T) {
	build := func(nodes int, pinned bool, budget float64) *Problem {
		src := rng.New(int64(nodes))
		p := NewProblem(Minimize)
		var all []Term
		for k := 0; k < nodes; k++ {
			dhi := src.Uniform(0.5, 2)
			if pinned && k%2 == 0 {
				dhi = 0
			}
			g := p.AddVar("g", 0, math.Inf(1), src.Uniform(1, 3))
			d := p.AddVar("d", 0, dhi, src.Uniform(-2, 1))
			u := p.AddVar("u", 0, math.Inf(1), 50)
			p.AddConstraint("demand", EQ, src.Uniform(0, 4), Term{g, 1}, Term{d, 1}, Term{u, 1})
			p.AddConstraint("gridcap", LE, src.Uniform(0, 3), Term{g, 1})
			all = append(all, Term{g, 1})
		}
		p.AddConstraint("budget", LE, budget, all...)
		return p
	}
	var cache PresolveCache
	var sols []*Solution
	var probs []*Problem
	var bits []solutionBits
	for i, shape := range []struct {
		nodes  int
		pinned bool
		budget float64
	}{
		{2, false, 1}, {2, false, 3}, {9, false, 4}, {9, true, 4}, {9, true, 7},
		{3, true, 1}, {3, true, 0.5}, {14, false, 10}, {14, true, 6},
	} {
		p := build(shape.nodes, shape.pinned, shape.budget)
		sol, err := p.SolveCached(&cache)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("solve %d (%d nodes, pinned %v)", i, shape.nodes, shape.pinned)
		if sol.Status == Optimal {
			if err := certify(p, sol); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		bits = append(bits, requireFreshMatch(t, label, p, sol))
		sols, probs = append(sols, sol), append(probs, p)
	}
	for i := range sols {
		if got := bitsOf(sols[i], probs[i].NumConstraints()); !got.equal(bits[i]) {
			t.Fatalf("solve %d changed after later solves", i)
		}
	}
}

// TestCloneHasOwnWorkspace checks that a clone solves in a workspace of
// its own and leaves the original's solution alone.
func TestCloneHasOwnWorkspace(t *testing.T) {
	p := buildDense(rng.New(3), 12, 9)
	sol, err := p.Solve()
	requireStatus(t, sol, err, Optimal)
	before := bitsOf(sol, p.NumConstraints())
	q := p.Clone()
	if q.work.tab.flat != nil || q.work.ps.reduced != nil {
		t.Fatal("Clone copied the workspace")
	}
	q.SetVarBounds(0, 1, 1)
	qsol, err := q.Solve()
	requireStatus(t, qsol, err, Optimal)
	if &q.work.tab.flat[0] == &p.work.tab.flat[0] {
		t.Fatal("clone solved in the original's tableau")
	}
	if got := bitsOf(sol, p.NumConstraints()); !got.equal(before) {
		t.Fatal("solving the clone changed the original's solution")
	}
	again, err := p.Solve()
	requireStatus(t, again, err, Optimal)
	if got := bitsOf(again, p.NumConstraints()); !got.equal(before) {
		t.Fatal("re-solving the original after the clone changed its result")
	}
}

// TestPinCorpusParallel runs the pin corpus on parallel goroutines, each
// with problems of its own; under -race it shows the workspaces share no
// state across problems.
func TestPinCorpusParallel(t *testing.T) {
	for g := 0; g < 4; g++ {
		t.Run(fmt.Sprint(g), func(t *testing.T) {
			t.Parallel()
			d := newPinDigest()
			runPinCorpus(t, func(s pinSolve) { d.add(s.p, s.sol) })
			if d.h != pinCorpusHash {
				t.Fatalf("digest %#x, want %#x", d.h, pinCorpusHash)
			}
		})
	}
}

// mutateValues perturbs right-hand sides and bounds and, with small
// probability, costs: the edits callers make between solves of one
// Problem.
func mutateValues(src *rng.Source, p *Problem) {
	for i := 0; i < p.NumConstraints(); i++ {
		if src.Bernoulli(0.6) {
			p.SetConstraintRHS(i, p.ConstraintRHS(i)+src.Uniform(-0.5, 0.5))
		}
	}
	for j := 0; j < p.NumVars(); j++ {
		if src.Bernoulli(0.3) {
			lo, hi := p.VarBounds(VarID(j))
			lo += src.Uniform(-0.3, 0.3)
			if !math.IsInf(hi, 1) {
				hi += src.Uniform(-0.3, 0.3)
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			p.SetVarBounds(VarID(j), lo, hi)
		}
		if src.Bernoulli(0.1) {
			p.SetVarCost(VarID(j), src.Uniform(-3, 3))
		}
	}
}

// TestWorkspaceResolveAfterEdits re-solves one Problem after each of a
// random sequence of value edits and requires every result to match a
// solve in a fresh workspace bit for bit, with each optimum certified.
func TestWorkspaceResolveAfterEdits(t *testing.T) {
	src := rng.New(9461)
	for trial := 0; trial < 60; trial++ {
		n := 1 + src.Intn(7)
		m := 1 + src.Intn(7)
		sense := Minimize
		if src.Bernoulli(0.5) {
			sense = Maximize
		}
		p, _, _ := feasibleRandomLP(src, n, m, sense)
		for round := 0; round < 8; round++ {
			sol, err := solveCertified(t, p)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			requireFreshMatch(t, "resolve", p, sol)
			mutateValues(src, p)
		}
	}
}

// TestWorkspaceInfeasibleTransitions drives one problem through feasible
// → infeasible → feasible purely via rhs edits and requires each re-solve
// in the reused workspace to track the status.
func TestWorkspaceInfeasibleTransitions(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 1, 1)
	y := p.AddVar("y", 0, 1, 2)
	p.AddConstraint("need", GE, 1.5, Term{x, 1}, Term{y, 1})

	sol, err := p.Solve()
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-2.0) > 1e-9 { // x=1, y=0.5
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}

	p.SetConstraintRHS(0, 5) // beyond x+y's reach
	sol, err = p.Solve()
	requireStatus(t, sol, err, Infeasible)

	p.SetConstraintRHS(0, 0.5)
	sol, err = p.Solve()
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-0.5) > 1e-9 { // x=0.5
		t.Fatalf("objective = %v, want 0.5", sol.Objective)
	}
}
