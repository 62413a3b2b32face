// Package lp implements a two-phase, bounded-variable simplex solver for
// linear programs.
//
// It exists because the paper's per-slot subproblems (the S1 sequential-
// fix scheduling heuristic, its exact branch-and-bound counterpart, the
// relaxed lower-bound problem P3̄, and the inner programs of the S4 energy
// management in internal/energymgmt) all reduce to small/medium LPs that
// the original authors solved with CPLEX; this package is the
// from-scratch, stdlib-only substitute. Each slot builds and solves its
// programs afresh, so no solver state is carried from one solve to the
// next. Solution.Iterations exposes each solve's simplex work to the
// metrics layer (docs/METRICS.md).
//
// Scope and guarantees:
//   - Variables have a finite lower bound and a finite or +Inf upper bound.
//     (Free variables can be modeled by splitting into two non-negatives.)
//   - Constraints are <=, >=, or = rows.
//   - Phase 1 uses artificial variables; Phase 2 optimizes the real
//     objective. Dantzig pricing with an automatic switch to Bland's rule
//     guards against cycling.
//   - Status is one of Optimal, Infeasible, Unbounded, or IterationLimit.
//
// # Solve flow
//
// Solve runs presolve (fixed-variable substitution, empty-row
// elimination) and then the two-phase primal simplex on a dense full
// tableau: phase 1 drives artificial variables out of the basis to find a
// feasible point, phase 2 optimizes the real objective. The tableau and
// presolve run in a workspace held by the Problem (by the PresolveCache
// for SolveCached) and reused by its later solves, so repeated solves
// allocate only their Solution. The test suite checks every optimum with
// an optimality certificate and small problems against brute-force vertex
// enumeration. docs/PERFORMANCE.md documents the engine's cost model.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects minimization or maximization of the objective.
type Sense int

// Objective senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota + 1 // <=
	GE                // >=
	EQ                // =
)

// String implements fmt.Stringer.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// VarID identifies a variable within a Problem.
type VarID int

// Term is one coefficient of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
	IterationLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrBadProblem reports a structurally invalid problem (e.g. inconsistent
// bounds or an unknown variable in a constraint).
var ErrBadProblem = errors.New("lp: invalid problem")

type variable struct {
	name string
	lo   float64
	hi   float64
	cost float64
}

type constraint struct {
	name  string
	rel   Rel
	rhs   float64
	terms []Term
}

// Problem is a linear program under construction. The zero value is not
// usable; create one with NewProblem. A Problem is not safe for concurrent
// use: Solve reuses scratch space the Problem holds.
type Problem struct {
	sense Sense
	vars  []variable
	cons  []constraint
	// maxIters caps the total simplex iterations of a solve (both phases);
	// 0 means the engine's built-in safety cap only. See SetIterationLimit.
	maxIters int

	// work is reused by every Solve of this Problem. Clone does not copy
	// it, and it makes concurrent Solve calls on one Problem a data race.
	work workspace
}

// workspace is the scratch a solve reuses: presolve's reduction and the
// tableau. Both grow to the largest problem solved in them and are
// cleared, not reallocated, for the next.
type workspace struct {
	ps  presolved
	tab tableau
}

// NewProblem returns an empty problem with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// cost, returning its identifier. hi may be math.Inf(1); lo must be finite.
func (p *Problem) AddVar(name string, lo, hi, cost float64) VarID {
	p.vars = append(p.vars, variable{name: name, lo: lo, hi: hi, cost: cost})
	return VarID(len(p.vars) - 1)
}

// Sense returns the objective sense the problem was created with.
func (p *Problem) Sense() Sense { return p.sense }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.vars) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetVarBounds replaces the bounds of v. It panics if v is unknown.
func (p *Problem) SetVarBounds(v VarID, lo, hi float64) {
	p.vars[v].lo = lo
	p.vars[v].hi = hi
}

// SetIterationLimit caps the total simplex iterations (pivots and bound
// flips, both phases) a Solve may spend; a solve that exhausts the budget
// reports Status IterationLimit. n <= 0 restores the default behavior: the
// engine's built-in anti-cycling safety cap only. The limit is a solve
// budget for callers with per-slot deadlines (docs/ROBUSTNESS.md), so it
// survives Clone and presolve reduction.
func (p *Problem) SetIterationLimit(n int) {
	if n < 0 {
		n = 0
	}
	p.maxIters = n
}

// IterationLimit returns the configured iteration budget (0 = none).
func (p *Problem) IterationLimit() int { return p.maxIters }

// SetVarCost replaces the objective coefficient of v.
func (p *Problem) SetVarCost(v VarID, cost float64) {
	p.vars[v].cost = cost
}

// SetConstraintRHS replaces the right-hand side of constraint i (in the
// order constraints were added). It panics if i is out of range.
func (p *Problem) SetConstraintRHS(i int, rhs float64) {
	p.cons[i].rhs = rhs
}

// ConstraintRHS returns the current right-hand side of constraint i.
func (p *Problem) ConstraintRHS(i int) float64 { return p.cons[i].rhs }

// VarName returns the name given to v at creation.
func (p *Problem) VarName(v VarID) string { return p.vars[v].name }

// VarBounds returns the current bounds of v.
func (p *Problem) VarBounds(v VarID) (lo, hi float64) {
	return p.vars[v].lo, p.vars[v].hi
}

// AddConstraint adds the row "sum(terms) rel rhs". Duplicate variables in
// terms are summed. Rows with no terms are allowed and checked for
// consistency at solve time.
func (p *Problem) AddConstraint(name string, rel Rel, rhs float64, terms ...Term) {
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.cons = append(p.cons, constraint{name: name, rel: rel, rhs: rhs, terms: cp})
}

// Clone returns a deep copy of p; bound changes on the clone do not affect
// the original. Constraint term slices are shared structurally but never
// mutated by the solver, so cloning copies only the headers.
func (p *Problem) Clone() *Problem {
	q := &Problem{sense: p.sense, maxIters: p.maxIters}
	q.vars = make([]variable, len(p.vars))
	copy(q.vars, p.vars)
	q.cons = make([]constraint, len(p.cons))
	copy(q.cons, p.cons)
	return q
}

// Solution holds the result of Solve.
type Solution struct {
	Status    Status
	Objective float64
	// Iterations is the total number of simplex iterations (pivots and
	// bound flips, phases 1 and 2) spent on this solve — the
	// work measure surfaced by the metrics layer (docs/METRICS.md).
	Iterations int

	x []float64
	y []float64
}

// Value returns the optimal value of v. It returns 0 for non-Optimal
// solutions.
func (s *Solution) Value(v VarID) float64 {
	if s.Status != Optimal || int(v) >= len(s.x) {
		return 0
	}
	return s.x[v]
}

// Dual returns the simplex multiplier of constraint i (in the order
// constraints were added): the sensitivity ∂Objective/∂rhs_i at the
// optimum. For degenerate optima the multiplier is one valid member of the
// dual optimal set. It returns 0 for non-Optimal solutions.
func (s *Solution) Dual(i int) float64 {
	if s.Status != Optimal || i < 0 || i >= len(s.y) {
		return 0
	}
	return s.y[i]
}

// Values returns a copy of the full primal solution vector (structural
// variables only), or nil for non-Optimal solutions.
func (s *Solution) Values() []float64 {
	if s.Status != Optimal {
		return nil
	}
	out := make([]float64, len(s.x))
	copy(out, s.x)
	return out
}

// Solve optimizes the problem. An error is returned only for structurally
// invalid input; solver outcomes (infeasible, unbounded, iteration limit)
// are reported via Solution.Status.
func (p *Problem) Solve() (*Solution, error) {
	if sol, err := p.validateForSolve(); sol != nil || err != nil {
		return sol, err
	}

	// Presolve: substitute fixed variables and drop rows that become
	// empty. The scheduler's sequential-fix loop pins more variables each
	// round, so this shrinks its LPs substantially.
	p.work.ps.build(p)
	return p.solvePresolved(&p.work)
}

// validateForSolve checks the problem for structural validity. It returns
// a non-nil Solution for trivially infeasible bound boxes, a non-nil error
// for malformed input, and (nil, nil) when the problem may be solved.
func (p *Problem) validateForSolve() (*Solution, error) {
	for i, v := range p.vars {
		if math.IsInf(v.lo, 0) || math.IsNaN(v.lo) || math.IsNaN(v.hi) || math.IsInf(v.hi, -1) {
			return nil, fmt.Errorf("%w: variable %d (%s) has invalid bounds [%v,%v]",
				ErrBadProblem, i, v.name, v.lo, v.hi)
		}
		if v.lo > v.hi {
			// Inconsistent box: trivially infeasible, but catch the
			// clearly-bogus construction cases too.
			if v.lo > v.hi+1e-12 {
				return &Solution{Status: Infeasible}, nil
			}
		}
	}
	for _, c := range p.cons {
		for _, t := range c.terms {
			if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
				return nil, fmt.Errorf("%w: constraint %q references unknown variable %d",
					ErrBadProblem, c.name, t.Var)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return nil, fmt.Errorf("%w: constraint %q has non-finite coefficient",
					ErrBadProblem, c.name)
			}
		}
		if math.IsNaN(c.rhs) || math.IsInf(c.rhs, 0) {
			return nil, fmt.Errorf("%w: constraint %q has non-finite rhs", ErrBadProblem, c.name)
		}
	}
	return nil, nil
}

// solvePresolved solves the problem w.ps presolved from p in the tableau
// w.tab and maps the reduced solution back to p's variable space.
func (p *Problem) solvePresolved(w *workspace) (*Solution, error) {
	ps := &w.ps
	if ps.infeasible {
		return &Solution{Status: Infeasible}, nil
	}
	if ps.identity {
		return p.solveAsIs(&w.tab), nil
	}
	// The reduction has no fixed variable and no empty row left, so it is
	// solved as it stands.
	sol, err := ps.reduced.validateForSolve()
	if err != nil {
		return nil, err
	}
	if sol == nil {
		sol = ps.reduced.solveAsIs(&w.tab)
	}
	return ps.expand(p, sol), nil
}

// solveAsIs solves p without presolve in the tableau tab.
func (p *Problem) solveAsIs(tab *tableau) *Solution {
	tab.load(p)
	status := tab.solve()
	sol := &Solution{Status: status, Iterations: tab.iters}
	if status == Optimal {
		sign := 1.0
		if p.sense == Maximize {
			sign = -1.0
		}
		sol.y = tab.duals(sign)
		sol.x = tab.structuralValues()
		obj := 0.0
		for j, v := range p.vars {
			obj += v.cost * sol.x[j]
		}
		sol.Objective = obj
	}
	return sol
}
