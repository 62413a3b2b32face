package lp

import (
	"math"
	"testing"

	"greencell/internal/rng"
)

const testEps = 1e-6

func requireStatus(t *testing.T, sol *Solution, err error, want Status) {
	t.Helper()
	if err != nil {
		t.Fatalf("Solve returned error: %v", err)
	}
	if sol.Status != want {
		t.Fatalf("status = %v, want %v", sol.Status, want)
	}
}

func TestTwoVariableBasic(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6, x,y >= 0  -> x=4, y=0, obj=12.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, math.Inf(1), 3)
	y := p.AddVar("y", 0, math.Inf(1), 2)
	p.AddConstraint("c1", LE, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint("c2", LE, 6, Term{x, 1}, Term{y, 3})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-12) > testEps {
		t.Errorf("objective = %v, want 12", sol.Objective)
	}
	if math.Abs(sol.Value(x)-4) > testEps || math.Abs(sol.Value(y)) > testEps {
		t.Errorf("solution = (%v,%v), want (4,0)", sol.Value(x), sol.Value(y))
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 0 -> x=10 y=0? check:
	// cost of x is cheaper (2<3) so all on x: x=10, obj=20.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 2, math.Inf(1), 2)
	y := p.AddVar("y", 0, math.Inf(1), 3)
	p.AddConstraint("demand", GE, 10, Term{x, 1}, Term{y, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-20) > testEps {
		t.Errorf("objective = %v, want 20", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 5, x <= 3 -> x=3, y=2, obj=7.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 3, 1)
	y := p.AddVar("y", 0, math.Inf(1), 2)
	p.AddConstraint("bal", EQ, 5, Term{x, 1}, Term{y, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-7) > testEps {
		t.Errorf("objective = %v, want 7", sol.Objective)
	}
	if math.Abs(sol.Value(x)-3) > testEps || math.Abs(sol.Value(y)-2) > testEps {
		t.Errorf("solution = (%v,%v), want (3,2)", sol.Value(x), sol.Value(y))
	}
}

func TestUpperBoundedVariables(t *testing.T) {
	// max x + y, x <= 1.5 (bound), y <= 2 (bound), x + y <= 3 -> obj 3 with
	// x=1.5 (binding), y=1.5.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 1.5, 1)
	y := p.AddVar("y", 0, 2, 1)
	p.AddConstraint("cap", LE, 3, Term{x, 1}, Term{y, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-3) > testEps {
		t.Errorf("objective = %v, want 3", sol.Objective)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x s.t. x >= -5 (bound), x + y = 0, y <= 2 -> x=-2, y=2.
	p := NewProblem(Minimize)
	x := p.AddVar("x", -5, math.Inf(1), 1)
	y := p.AddVar("y", 0, 2, 0)
	p.AddConstraint("bal", EQ, 0, Term{x, 1}, Term{y, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(x)+2) > testEps {
		t.Errorf("x = %v, want -2", sol.Value(x))
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 1, 1)
	p.AddConstraint("low", GE, 5, Term{x, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Infeasible)
}

func TestInfeasibleEqualPair(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, math.Inf(1), 1)
	y := p.AddVar("y", 0, math.Inf(1), 1)
	p.AddConstraint("a", EQ, 1, Term{x, 1}, Term{y, 1})
	p.AddConstraint("b", EQ, 3, Term{x, 1}, Term{y, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Infeasible)
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	p.AddVar("x", 0, math.Inf(1), 1) // unconstrained upward
	y := p.AddVar("y", 0, math.Inf(1), 0)
	p.AddConstraint("c", LE, 3, Term{y, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Unbounded)
}

func TestNoConstraints(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1, 4, -2) // negative cost: runs to upper bound
	y := p.AddVar("y", 1, 4, 3)  // positive cost: stays at lower bound
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if sol.Value(x) != 4 || sol.Value(y) != 1 {
		t.Errorf("solution = (%v,%v), want (4,1)", sol.Value(x), sol.Value(y))
	}
	if math.Abs(sol.Objective-(-8+3)) > testEps {
		t.Errorf("objective = %v, want -5", sol.Objective)
	}
}

func TestNoConstraintsUnbounded(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVar("x", 0, math.Inf(1), -1)
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Unbounded)
}

func TestEmptyConstraintConsistent(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVar("x", 0, 1, 1)
	p.AddConstraint("trivial", LE, 0) // 0 <= 0
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
}

func TestEmptyConstraintInconsistent(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVar("x", 0, 1, 1)
	p.AddConstraint("impossible", GE, 1) // 0 >= 1
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Infeasible)
}

func TestPinnedVariable(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 2, 2, 5) // pinned to 2
	y := p.AddVar("y", 0, math.Inf(1), 1)
	p.AddConstraint("c", GE, 6, Term{x, 1}, Term{y, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(x)-2) > testEps || math.Abs(sol.Value(y)-4) > testEps {
		t.Errorf("solution = (%v,%v), want (2,4)", sol.Value(x), sol.Value(y))
	}
}

func TestDuplicateTermsAreSummed(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, math.Inf(1), 1)
	p.AddConstraint("c", LE, 6, Term{x, 1}, Term{x, 2}) // 3x <= 6
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(x)-2) > testEps {
		t.Errorf("x = %v, want 2", sol.Value(x))
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows force a redundant-row artificial to stay basic.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, math.Inf(1), 1)
	y := p.AddVar("y", 0, math.Inf(1), 1)
	p.AddConstraint("a", EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint("b", EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint("c", EQ, 8, Term{x, 2}, Term{y, 2})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-4) > testEps {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

// TestBealeCycling exercises the classic Beale example that cycles under
// naive Dantzig pivoting without an anti-cycling rule.
func TestBealeCycling(t *testing.T) {
	p := NewProblem(Minimize)
	x1 := p.AddVar("x1", 0, math.Inf(1), -0.75)
	x2 := p.AddVar("x2", 0, math.Inf(1), 150)
	x3 := p.AddVar("x3", 0, math.Inf(1), -0.02)
	x4 := p.AddVar("x4", 0, math.Inf(1), 6)
	p.AddConstraint("r1", LE, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -0.04}, Term{x4, 9})
	p.AddConstraint("r2", LE, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -0.02}, Term{x4, 3})
	p.AddConstraint("r3", LE, 1, Term{x3, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestKleeMinty3(t *testing.T) {
	// 3-dimensional Klee-Minty cube: max 100x1 + 10x2 + x3.
	p := NewProblem(Maximize)
	x1 := p.AddVar("x1", 0, math.Inf(1), 100)
	x2 := p.AddVar("x2", 0, math.Inf(1), 10)
	x3 := p.AddVar("x3", 0, math.Inf(1), 1)
	p.AddConstraint("c1", LE, 1, Term{x1, 1})
	p.AddConstraint("c2", LE, 100, Term{x1, 20}, Term{x2, 1})
	p.AddConstraint("c3", LE, 10000, Term{x1, 200}, Term{x2, 20}, Term{x3, 1})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Objective-10000) > 1e-4 {
		t.Errorf("objective = %v, want 10000", sol.Objective)
	}
}

func TestMaximizeSenseSignHandling(t *testing.T) {
	// The same feasible set, both senses.
	build := func(sense Sense) (*Problem, VarID) {
		p := NewProblem(sense)
		x := p.AddVar("x", 1, 5, 1)
		p.AddConstraint("c", LE, 4, Term{x, 1})
		return p, x
	}
	pmin, xmin := build(Minimize)
	sol, err := solveCertified(t, pmin)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(xmin)-1) > testEps {
		t.Errorf("minimize: x = %v, want 1", sol.Value(xmin))
	}
	pmax, xmax := build(Maximize)
	sol, err = solveCertified(t, pmax)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(xmax)-4) > testEps {
		t.Errorf("maximize: x = %v, want 4", sol.Value(xmax))
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 10, 1)
	p.AddConstraint("c", GE, 2, Term{x, 1})
	q := p.Clone()
	q.SetVarBounds(x, 5, 10)

	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(x)-2) > testEps {
		t.Errorf("original x = %v, want 2", sol.Value(x))
	}
	sol, err = solveCertified(t, q)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(x)-5) > testEps {
		t.Errorf("clone x = %v, want 5", sol.Value(x))
	}
}

func TestBadVariableReference(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVar("x", 0, 1, 1)
	p.AddConstraint("c", LE, 1, Term{VarID(7), 1})
	if _, err := solveCertified(t, p); err == nil {
		t.Fatal("expected error for unknown variable reference")
	}
}

func TestNaNCoefficientRejected(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 1, 1)
	p.AddConstraint("c", LE, 1, Term{x, math.NaN()})
	if _, err := solveCertified(t, p); err == nil {
		t.Fatal("expected error for NaN coefficient")
	}
}

// --- randomized cross-checks ------------------------------------------------

// feasibleRandomLP builds a random LP that is feasible by construction
// (constraints are sampled to hold at a random interior point x0) and
// returns the problem, x0, and the variable ids.
func feasibleRandomLP(src *rng.Source, n, m int, sense Sense) (*Problem, []float64, []VarID) {
	p := NewProblem(sense)
	ids := make([]VarID, n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := src.Uniform(-2, 1)
		hi := lo + src.Uniform(0.5, 4)
		cost := src.Uniform(-3, 3)
		ids[j] = p.AddVar("v", lo, hi, cost)
		x0[j] = src.Uniform(lo, hi)
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, n)
		lhs := 0.0
		for j := 0; j < n; j++ {
			if src.Float64() < 0.3 {
				continue // sparse-ish rows
			}
			coef := src.Uniform(-2, 2)
			terms = append(terms, Term{ids[j], coef})
			lhs += coef * x0[j]
		}
		slack := src.Uniform(0, 2)
		if src.Bernoulli(0.5) {
			p.AddConstraint("r", LE, lhs+slack, terms...)
		} else {
			p.AddConstraint("r", GE, lhs-slack, terms...)
		}
	}
	return p, x0, ids
}

func evalObjective(p *Problem, ids []VarID, x []float64) float64 {
	obj := 0.0
	for j, id := range ids {
		obj += p.vars[id].cost * x[j]
	}
	return obj
}

// checkFeasible verifies x satisfies all bounds and constraints of p.
func checkFeasible(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	const tol = 1e-6
	for j := range p.vars {
		v := sol.Value(VarID(j))
		if v < p.vars[j].lo-tol || v > p.vars[j].hi+tol {
			t.Fatalf("var %d value %v outside [%v,%v]", j, v, p.vars[j].lo, p.vars[j].hi)
		}
	}
	for _, c := range p.cons {
		lhs := 0.0
		for _, term := range c.terms {
			lhs += term.Coef * sol.Value(term.Var)
		}
		switch c.rel {
		case LE:
			if lhs > c.rhs+tol {
				t.Fatalf("constraint %q violated: %v <= %v", c.name, lhs, c.rhs)
			}
		case GE:
			if lhs < c.rhs-tol {
				t.Fatalf("constraint %q violated: %v >= %v", c.name, lhs, c.rhs)
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > tol {
				t.Fatalf("constraint %q violated: %v = %v", c.name, lhs, c.rhs)
			}
		}
	}
}

func TestRandomFeasibleLPs(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(6)
		m := src.Intn(8)
		sense := Minimize
		if src.Bernoulli(0.5) {
			sense = Maximize
		}
		p, x0, ids := feasibleRandomLP(src, n, m, sense)
		sol, err := solveCertified(t, p)
		if err != nil {
			t.Fatalf("trial %d: error %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for feasible bounded LP", trial, sol.Status)
		}
		checkFeasible(t, p, sol)
		ref := evalObjective(p, ids, x0)
		if sense == Minimize && sol.Objective > ref+1e-6 {
			t.Fatalf("trial %d: optimal %v worse than feasible point %v", trial, sol.Objective, ref)
		}
		if sense == Maximize && sol.Objective < ref-1e-6 {
			t.Fatalf("trial %d: optimal %v worse than feasible point %v", trial, sol.Objective, ref)
		}
	}
}

// TestStrongDuality solves random primal/dual pairs
//
//	primal: min c'x  s.t. Ax >= b, x >= 0      (c >= 0, A > 0)
//	dual:   max b'y  s.t. A'y <= c, y >= 0
//
// Both are feasible by construction, so the optima must coincide.
func TestStrongDuality(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 120; trial++ {
		n := 1 + src.Intn(5)
		m := 1 + src.Intn(5)
		A := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		for j := range c {
			c[j] = src.Uniform(0, 3)
		}
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = src.Uniform(0.1, 2.1) // strictly positive
			}
			b[i] = src.Uniform(-1, 3)
		}

		primal := NewProblem(Minimize)
		xs := make([]VarID, n)
		for j := 0; j < n; j++ {
			xs[j] = primal.AddVar("x", 0, math.Inf(1), c[j])
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{xs[j], A[i][j]}
			}
			primal.AddConstraint("row", GE, b[i], terms...)
		}

		dual := NewProblem(Maximize)
		ys := make([]VarID, m)
		for i := 0; i < m; i++ {
			ys[i] = dual.AddVar("y", 0, math.Inf(1), b[i])
		}
		for j := 0; j < n; j++ {
			terms := make([]Term, m)
			for i := 0; i < m; i++ {
				terms[i] = Term{ys[i], A[i][j]}
			}
			dual.AddConstraint("col", LE, c[j], terms...)
		}

		psol, err := solveCertified(t, primal)
		requireStatus(t, psol, err, Optimal)
		dsol, err := solveCertified(t, dual)
		requireStatus(t, dsol, err, Optimal)
		if math.Abs(psol.Objective-dsol.Objective) > 1e-5*(1+math.Abs(psol.Objective)) {
			t.Fatalf("trial %d: duality gap: primal %v dual %v", trial, psol.Objective, dsol.Objective)
		}
	}
}

// TestAgainstVertexEnumeration compares the simplex optimum with exhaustive
// vertex enumeration on small random box-constrained problems.
func TestAgainstVertexEnumeration(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 120; trial++ {
		n := 2 + src.Intn(2) // 2..3 variables
		m := 1 + src.Intn(4)
		p := NewProblem(Minimize)
		ids := make([]VarID, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		cost := make([]float64, n)
		for j := 0; j < n; j++ {
			lo[j] = 0
			hi[j] = src.Uniform(1, 3)
			cost[j] = src.Uniform(-2, 2)
			ids[j] = p.AddVar("x", lo[j], hi[j], cost[j])
		}
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for i := 0; i < m; i++ {
			rows[i] = make([]float64, n)
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				rows[i][j] = src.Uniform(-1, 2)
				terms[j] = Term{ids[j], rows[i][j]}
			}
			// RHS chosen so the origin is feasible: rhs >= 0.
			rhs[i] = src.Uniform(0, 3)
			p.AddConstraint("row", LE, rhs[i], terms...)
		}
		sol, err := solveCertified(t, p)
		requireStatus(t, sol, err, Optimal)
		checkFeasible(t, p, sol)

		best := enumerateBest(n, lo, hi, cost, rows, rhs)
		if sol.Objective > best+1e-5 {
			t.Fatalf("trial %d: simplex %v worse than enumerated vertex %v", trial, sol.Objective, best)
		}
		if sol.Objective < best-1e-5 {
			t.Fatalf("trial %d: simplex %v below any vertex %v (infeasible point?)", trial, sol.Objective, best)
		}
	}
}

// enumerateBest exhaustively enumerates candidate vertices of
// {lo <= x <= hi, rows.x <= rhs} by intersecting every subset of n tight
// hyperplanes chosen among constraint rows and box faces, and returns the
// minimum cost over feasible intersections.
func enumerateBest(n int, lo, hi, cost []float64, rows [][]float64, rhs []float64) float64 {
	// Build the full list of hyperplanes a.x = b.
	type plane struct {
		a []float64
		b float64
	}
	var planes []plane
	for i := range rows {
		planes = append(planes, plane{rows[i], rhs[i]})
	}
	for j := 0; j < n; j++ {
		alo := make([]float64, n)
		alo[j] = 1
		planes = append(planes, plane{alo, lo[j]})
		ahi := make([]float64, n)
		ahi[j] = 1
		planes = append(planes, plane{ahi, hi[j]})
	}

	feasible := func(x []float64) bool {
		const tol = 1e-7
		for j := 0; j < n; j++ {
			if x[j] < lo[j]-tol || x[j] > hi[j]+tol {
				return false
			}
		}
		for i := range rows {
			s := 0.0
			for j := 0; j < n; j++ {
				s += rows[i][j] * x[j]
			}
			if s > rhs[i]+tol {
				return false
			}
		}
		return true
	}

	best := math.Inf(1)
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			A := make([][]float64, n)
			b := make([]float64, n)
			for r, pi := range idx {
				A[r] = append([]float64(nil), planes[pi].a...)
				b[r] = planes[pi].b
			}
			x, ok := gaussSolve(A, b)
			if !ok || !feasible(x) {
				return
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += cost[j] * x[j]
			}
			if obj < best {
				best = obj
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

// gaussSolve solves Ax = b with partial pivoting; ok=false if singular.
func gaussSolve(A [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		if math.Abs(A[piv][col]) < 1e-9 {
			return nil, false
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := A[r][col] / A[col][col]
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				A[r][k] -= f * A[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < n; k++ {
			s -= A[r][k] * x[k]
		}
		x[r] = s / A[r][r]
	}
	return x, true
}

// TestBadlyScaledRows exercises the row equilibration: constraints whose
// coefficients sit ~12 orders of magnitude below the objective weights must
// still bind (this is the structure of the scheduler's SINR rows).
func TestBadlyScaledRows(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 1, 1e7)
	y := p.AddVar("y", 0, 1, 9e6)
	// Tiny-coefficient row: 1e-12 x + 1e-12 y <= 1.5e-12, i.e. x + y <= 1.5.
	p.AddConstraint("tiny", LE, 1.5e-12, Term{x, 1e-12}, Term{y, 1e-12})
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if sol.Value(x)+sol.Value(y) > 1.5+1e-6 {
		t.Fatalf("tiny-coefficient constraint ignored: x+y = %v", sol.Value(x)+sol.Value(y))
	}
	if math.Abs(sol.Objective-(1e7+0.5*9e6)) > 1 {
		t.Errorf("objective = %v, want %v", sol.Objective, 1e7+0.5*9e6)
	}
}

// TestHugeCoefficientRows: the mirror case with very large row norms.
func TestHugeCoefficientRows(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, math.Inf(1), 1)
	p.AddConstraint("huge", GE, 3e9, Term{x, 1e9}) // x >= 3
	sol, err := solveCertified(t, p)
	requireStatus(t, sol, err, Optimal)
	if math.Abs(sol.Value(x)-3) > 1e-6 {
		t.Errorf("x = %v, want 3", sol.Value(x))
	}
}
