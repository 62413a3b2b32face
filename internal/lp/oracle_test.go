package lp

import (
	"math"
	"testing"

	"greencell/internal/rng"
)

// bruteForce solves a small LP whose variables all have finite bounds,
// with no simplex at all. The feasible set is then a polytope, so when it
// is nonempty an optimum sits at one of its vertices, and every vertex is
// the unique solution of some n of the problem's hyperplanes (constraint
// rows and bound faces) held with equality. bruteForce solves every such
// n×n system, keeps the solutions that satisfy all rows and bounds, and
// returns the best objective among them; with no feasible vertex the
// problem is Infeasible. The work grows as C(rows+2n, n), so it is meant
// for n ≤ 4 and about a dozen rows.
func bruteForce(t *testing.T, p *Problem) (Status, float64) {
	t.Helper()
	n := len(p.vars)
	type plane struct {
		a []float64
		b float64
	}
	rows := make([]plane, len(p.cons))
	for i, c := range p.cons {
		a := make([]float64, n)
		for _, term := range c.terms {
			a[term.Var] += term.Coef
		}
		rows[i] = plane{a, c.rhs}
	}
	planes := append([]plane(nil), rows...)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j, v := range p.vars {
		if math.IsInf(v.hi, 1) {
			t.Fatalf("bruteForce: variable %d has no finite upper bound", j)
		}
		lo[j], hi[j] = math.Min(v.lo, v.hi), math.Max(v.lo, v.hi)
		for _, bound := range []float64{lo[j], hi[j]} {
			a := make([]float64, n)
			a[j] = 1
			planes = append(planes, plane{a, bound})
		}
	}

	const tol = 1e-7
	feasible := func(x []float64) bool {
		for j := range x {
			if x[j] < lo[j]-tol*(1+math.Abs(lo[j])) || x[j] > hi[j]+tol*(1+math.Abs(hi[j])) {
				return false
			}
		}
		for i, r := range rows {
			lhs, mag := 0.0, math.Abs(r.b)
			for j, a := range r.a {
				lhs += a * x[j]
				mag += math.Abs(a * x[j])
			}
			slack := r.b - lhs
			switch p.cons[i].rel {
			case LE:
				if slack < -tol*(1+mag) {
					return false
				}
			case GE:
				if slack > tol*(1+mag) {
					return false
				}
			case EQ:
				if math.Abs(slack) > tol*(1+mag) {
					return false
				}
			}
		}
		return true
	}

	status, best := Infeasible, 0.0
	better := func(obj float64) bool {
		if status != Optimal {
			return true
		}
		if p.sense == Maximize {
			return obj > best
		}
		return obj < best
	}
	idx := make([]int, n)
	A := make([][]float64, n)
	for r := range A {
		A[r] = make([]float64, n)
	}
	b := make([]float64, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			for r, pi := range idx {
				copy(A[r], planes[pi].a)
				b[r] = planes[pi].b
			}
			x, ok := gaussSolve(A, b)
			if !ok || !feasible(x) {
				return
			}
			obj := 0.0
			for j, v := range p.vars {
				obj += v.cost * x[j]
			}
			if better(obj) {
				status, best = Optimal, obj
			}
			return
		}
		for i := start; i < len(planes); i++ {
			if hiFace := i >= len(rows) && (i-len(rows))%2 == 1; hiFace && k > 0 && idx[k-1] == i-1 {
				continue // both faces of one variable: parallel, never a vertex
			}
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return status, best
}

// requireAgreesWithBruteForce solves p, certifies an Optimal outcome, and
// requires the status and objective to match bruteForce's.
func requireAgreesWithBruteForce(t *testing.T, p *Problem, trial int) *Solution {
	t.Helper()
	sol, err := solveCertified(t, p)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus, wantObj := bruteForce(t, p)
	if sol.Status != wantStatus {
		t.Fatalf("trial %d: status simplex=%v brute-force=%v", trial, sol.Status, wantStatus)
	}
	if sol.Status == Optimal {
		if tol := 1e-6 * (1 + math.Abs(wantObj)); math.Abs(sol.Objective-wantObj) > tol {
			t.Fatalf("trial %d: objective simplex=%v brute-force=%v", trial, sol.Objective, wantObj)
		}
	}
	return sol
}

// TestBruteForceOracle checks the oracle itself on problems with known
// answers, infeasible ones included.
func TestBruteForceOracle(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 10, 3)
	y := p.AddVar("y", 0, 10, 2)
	p.AddConstraint("c1", LE, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint("c2", LE, 6, Term{x, 1}, Term{y, 3})
	if st, obj := bruteForce(t, p); st != Optimal || math.Abs(obj-12) > 1e-9 {
		t.Fatalf("two-var max: %v %v, want optimal 12", st, obj)
	}

	q := NewProblem(Minimize)
	z := q.AddVar("z", 0, 3, 1)
	w := q.AddVar("w", 0, 1, 2)
	q.AddConstraint("bal", EQ, 3.5, Term{z, 1}, Term{w, 1})
	if st, obj := bruteForce(t, q); st != Optimal || math.Abs(obj-4) > 1e-9 {
		t.Fatalf("equality: %v %v, want optimal 4", st, obj)
	}
	q.AddConstraint("cap", LE, 3, Term{z, 1}, Term{w, 1})
	if st, _ := bruteForce(t, q); st != Infeasible {
		t.Fatalf("contradictory rows: %v, want infeasible", st)
	}
}

// TestEnginesAgreeOnKnownProblems solves hand-checked problems and
// requires the simplex to reach the hand-derived status and optimum, each
// optimum passing the optimality certificate.
func TestEnginesAgreeOnKnownProblems(t *testing.T) {
	build := map[string]func() (*Problem, float64, Status){
		"two-var max": func() (*Problem, float64, Status) {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 0, math.Inf(1), 3)
			y := p.AddVar("y", 0, math.Inf(1), 2)
			p.AddConstraint("c1", LE, 4, Term{x, 1}, Term{y, 1})
			p.AddConstraint("c2", LE, 6, Term{x, 1}, Term{y, 3})
			return p, 12, Optimal
		},
		"equality": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 3, 1)
			y := p.AddVar("y", 0, math.Inf(1), 2)
			p.AddConstraint("bal", EQ, 5, Term{x, 1}, Term{y, 1})
			return p, 7, Optimal
		},
		"bounded": func() (*Problem, float64, Status) {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 0, 1.5, 1)
			y := p.AddVar("y", 0, 2, 1)
			p.AddConstraint("cap", LE, 3, Term{x, 1}, Term{y, 1})
			return p, 3, Optimal
		},
		"negative-lo": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x := p.AddVar("x", -5, math.Inf(1), 1)
			y := p.AddVar("y", 0, 2, 0)
			p.AddConstraint("bal", EQ, 0, Term{x, 1}, Term{y, 1})
			return p, -2, Optimal
		},
		"infeasible": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 1, 1)
			p.AddConstraint("low", GE, 5, Term{x, 1})
			return p, 0, Infeasible
		},
		"unbounded": func() (*Problem, float64, Status) {
			p := NewProblem(Maximize)
			p.AddVar("x", 0, math.Inf(1), 1)
			return p, 0, Unbounded
		},
		"beale": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x1 := p.AddVar("x1", 0, math.Inf(1), -0.75)
			x2 := p.AddVar("x2", 0, math.Inf(1), 150)
			x3 := p.AddVar("x3", 0, math.Inf(1), -0.02)
			x4 := p.AddVar("x4", 0, math.Inf(1), 6)
			p.AddConstraint("r1", LE, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -0.04}, Term{x4, 9})
			p.AddConstraint("r2", LE, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -0.02}, Term{x4, 3})
			p.AddConstraint("r3", LE, 1, Term{x3, 1})
			return p, -0.05, Optimal
		},
		"badly-scaled": func() (*Problem, float64, Status) {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, math.Inf(1), 1)
			p.AddConstraint("huge", GE, 3e9, Term{x, 1e9})
			return p, 3, Optimal
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			p, wantObj, wantStatus := mk()
			sol, err := solveCertified(t, p)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != wantStatus {
				t.Fatalf("status = %v, want %v", sol.Status, wantStatus)
			}
			if wantStatus == Optimal && math.Abs(sol.Objective-wantObj) > 1e-6 {
				t.Fatalf("objective = %v, want %v", sol.Objective, wantObj)
			}
		})
	}
}

// TestEnginesAgreeOnRandomLPs checks the simplex against brute-force
// vertex enumeration on a large batch of random feasible problems: same
// status, same optimum, and every optimum certified.
func TestEnginesAgreeOnRandomLPs(t *testing.T) {
	src := rng.New(2718)
	for trial := 0; trial < 400; trial++ {
		n := 1 + src.Intn(7)
		m := src.Intn(8)
		sense := Minimize
		if src.Bernoulli(0.5) {
			sense = Maximize
		}
		p, _, _ := feasibleRandomLP(src, n, m, sense)
		sol := requireAgreesWithBruteForce(t, p, trial)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for a feasible bounded LP", trial, sol.Status)
		}
		checkFeasible(t, p, sol)
	}
}

// TestEnginesAgreeOnInfeasibleAndDegenerate stresses the disagreement-prone
// cases — tight equalities, redundant rows, pinned variables — and checks
// every verdict against brute-force vertex enumeration, the Infeasible
// ones included (which the optimality certificate cannot check).
func TestEnginesAgreeOnInfeasibleAndDegenerate(t *testing.T) {
	src := rng.New(31415)
	infeasible := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(4)
		p := NewProblem(Minimize)
		ids := make([]VarID, n)
		for j := 0; j < n; j++ {
			lo := src.Uniform(-1, 1)
			hi := lo
			if src.Bernoulli(0.7) {
				hi = lo + src.Uniform(0, 2)
			}
			ids[j] = p.AddVar("x", lo, hi, src.Uniform(-2, 2))
		}
		rows := 1 + src.Intn(4)
		for i := 0; i < rows; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{ids[j], src.Uniform(-1, 1)}
			}
			rel := []Rel{LE, GE, EQ}[src.Intn(3)]
			p.AddConstraint("r", rel, src.Uniform(-1, 1), terms...)
		}
		if requireAgreesWithBruteForce(t, p, trial).Status == Infeasible {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Fatal("no infeasible trial: the Infeasible verdicts went unchecked")
	}
}
