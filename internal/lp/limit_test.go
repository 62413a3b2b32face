package lp

import (
	"math"
	"testing"
)

// budgetProblem builds an LP that needs several simplex iterations: a
// transportation-like min-cost problem with equality rows (forcing a
// phase 1) and enough columns that the solve cannot finish in one pivot.
func budgetProblem() *Problem {
	p := NewProblem(Minimize)
	const n = 6
	xs := make([]VarID, n)
	for j := 0; j < n; j++ {
		xs[j] = p.AddVar("x", 0, math.Inf(1), float64(1+j%3))
	}
	for i := 0; i < n/2; i++ {
		p.AddConstraint("row", EQ, 4,
			Term{Var: xs[2*i], Coef: 1}, Term{Var: xs[2*i+1], Coef: 1})
	}
	p.AddConstraint("cap", LE, 9,
		Term{Var: xs[0], Coef: 1}, Term{Var: xs[2], Coef: 1}, Term{Var: xs[4], Coef: 1})
	return p
}

func TestIterationBudget(t *testing.T) {
	p := budgetProblem()
	free, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if free.Status != Optimal {
		t.Fatalf("unbudgeted solve status %v", free.Status)
	}
	if free.Iterations < 2 {
		t.Fatalf("test problem too easy (%d iterations)", free.Iterations)
	}

	p.SetIterationLimit(1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit {
		t.Errorf("limit 1 gave status %v, want iteration-limit", sol.Status)
	}
	if sol.Iterations > 1 {
		t.Errorf("spent %d iterations under a budget of 1", sol.Iterations)
	}

	// A budget at least as large as the free solve must not bite.
	p.SetIterationLimit(free.Iterations)
	sol, err = p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Errorf("budget %d gave status %v, want optimal", free.Iterations, sol.Status)
	}
}

func TestIterationBudgetSurvivesCloneAndPresolve(t *testing.T) {
	p := budgetProblem()
	p.SetIterationLimit(1)
	q := p.Clone()
	if q.IterationLimit() != 1 {
		t.Fatalf("Clone dropped the iteration limit: got %d", q.IterationLimit())
	}
	// Pin a variable so presolve builds a reduced problem; the budget must
	// apply to the reduced solve too.
	q.SetVarBounds(0, 2, 2)
	sol, err := q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit {
		t.Errorf("presolved budgeted solve status %v, want iteration-limit", sol.Status)
	}

	// SetIterationLimit(0) restores the default (no caller budget).
	q.SetIterationLimit(0)
	sol, err = q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Errorf("after clearing budget, status %v, want optimal", sol.Status)
	}
}
