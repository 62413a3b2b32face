package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockSafePackages scopes locksafe to the packages where a stuck or leaked
// mutex takes the serving layer down: the shared job service and the
// daemon (internal/server), the coordinator, the replication machinery,
// and the distributed controller. The fixture package keeps
// the analyzer honest under test.
var LockSafePackages = []string{
	"internal/server",
	"internal/sim",
	"internal/cluster",
	"internal/machine",
	"testdata/src/locksafe",
}

// LockSafe is the CFG-path mutex discipline checker for LockSafePackages:
//
//   - every sync.Mutex/RWMutex Lock (and RLock) must reach its Unlock
//     (RUnlock) on EVERY path out of the function — early returns, panic
//     exits, and error branches included. A "defer mu.Unlock()" (directly
//     or inside a deferred closure) discharges the obligation for all
//     later paths;
//   - no mutex may be held across an operation that can block indefinitely:
//     channel sends/receives, select without default, ranging a channel,
//     time.Sleep, sync.WaitGroup.Wait, net/http calls, LP solves
//     (internal/lp), and calls to in-package functions that themselves do
//     any of those (computed bottom-up over the package call graph).
//     sync.Cond.Wait is exempt — holding the lock is its contract.
//
// A deferred unlock does NOT exempt blocking: the lock is genuinely held
// until the function returns. Intentional holds (a send whose capacity was
// checked under the same lock, say) carry //lint:allow locksafe with the
// invariant that makes them safe. Test files are skipped.
type LockSafe struct{}

// Name implements Analyzer.
func (LockSafe) Name() string { return "locksafe" }

// Doc implements Analyzer.
func (LockSafe) Doc() string {
	return "mutexes not released on every path, or held across blocking operations"
}

// lockEntry is one held lock: where it was taken and whether a deferred
// unlock already guarantees release at exit.
type lockEntry struct {
	pos      token.Pos
	deferred bool
}

// lockFact maps a lock's canonical name ("s.mu", "l.mu/r" for read locks)
// to its state. nil is Bottom.
type lockFact map[string]lockEntry

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// Check implements Analyzer.
func (l LockSafe) Check(pkg *Package) []Finding {
	if !inScope(pkg.PkgPath, LockSafePackages) {
		return nil
	}
	blocks := blockingSummaries(pkg)
	var out []Finding
	funcBodies(pkg, func(name string, node ast.Node, body *ast.BlockStmt) {
		if strings.HasSuffix(pkg.Fset.Position(node.Pos()).Filename, "_test.go") {
			return
		}
		out = append(out, l.checkFunc(pkg, body, blocks)...)
	})
	SortFindings(out)
	return out
}

// inScope reports whether a package path (modulo " [test]") ends with one
// of the scoped suffixes.
func inScope(pkgPath string, scopes []string) bool {
	p := strings.TrimSuffix(pkgPath, " [test]")
	for _, s := range scopes {
		if strings.HasSuffix(p, s) {
			return true
		}
	}
	return false
}

// blockingSummaries computes, bottom-up over the package call graph, which
// declared functions can block (directly or through an in-package callee).
func blockingSummaries(pkg *Package) map[*types.Func]any {
	return Summaries(pkg, func(fn FuncInfo, get func(*types.Func) any) any {
		found := false
		var walk func(n ast.Node)
		walk = func(root ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				if found {
					return false
				}
				switch x := n.(type) {
				case *ast.FuncLit:
					return false // its own function; a call to it is dynamic
				case *ast.SendStmt:
					found = true
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						found = true
					}
				case *ast.SelectStmt:
					if !selectHasDefault(x) {
						found = true
						return false
					}
					// Non-blocking select: its comm ops cannot block, but
					// the clause bodies still can.
					for _, c := range x.Body.List {
						if cc, ok := c.(*ast.CommClause); ok {
							for _, s := range cc.Body {
								walk(s)
							}
						}
					}
					return false
				case *ast.RangeStmt:
					if isChanType(pkg, x.X) {
						found = true
					}
				case *ast.CallExpr:
					if directBlockingCall(pkg, x) {
						found = true
					} else if callee := CalleeFunc(pkg, x); callee != nil && callee.Pkg() == pkg.Types {
						if b, ok := get(callee).(bool); ok && b {
							found = true
						}
					}
				}
				return !found
			})
		}
		walk(fn.Decl.Body)
		return found
	}, func(a, b any) bool { return a == b })
}

// checkFunc runs the lock dataflow over one function.
func (l LockSafe) checkFunc(pkg *Package, body *ast.BlockStmt, blocks map[*types.Func]any) []Finding {
	cfg := BuildCFG(body)
	flow := Flow{
		Bottom: func() Fact { return nil },
		Join: func(x, y Fact) Fact {
			if x == nil {
				return y
			}
			if y == nil {
				return x
			}
			fx, fy := x.(lockFact), y.(lockFact)
			out := fx.clone()
			for k, v := range fy {
				if prev, ok := out[k]; ok {
					// Discharged only if deferred on every incoming path.
					v.deferred = v.deferred && prev.deferred
					if prev.pos < v.pos {
						v.pos = prev.pos
					}
				}
				out[k] = v
			}
			return out
		},
		Equal: func(x, y Fact) bool {
			if (x == nil) != (y == nil) {
				return false
			}
			if x == nil {
				return true
			}
			fx, fy := x.(lockFact), y.(lockFact)
			if len(fx) != len(fy) {
				return false
			}
			for k, v := range fx {
				if fy[k] != v {
					return false
				}
			}
			return true
		},
		Transfer: func(b *Block, in Fact) Fact {
			if in == nil {
				return nil
			}
			cur := in.(lockFact).clone()
			for _, n := range b.Nodes {
				applyLockNode(pkg, cur, n, nil, blocks, cfg.Comm)
			}
			return cur
		},
	}
	in := ForwardDataflow(cfg, lockFact{}, flow)

	var out []Finding
	report := func(pos token.Pos, msg string) {
		out = append(out, Finding{Analyzer: l.Name(), Pos: pkg.Fset.Position(pos), Message: msg})
	}
	seen := make(map[string]bool)
	reportOnce := func(pos token.Pos, msg string) {
		key := msg + "@" + pkg.Fset.Position(pos).String()
		if !seen[key] {
			seen[key] = true
			report(pos, msg)
		}
	}
	for _, b := range cfg.Blocks {
		fact := in[b]
		if fact == nil {
			continue
		}
		cur := fact.(lockFact).clone()
		for _, n := range b.Nodes {
			applyLockNode(pkg, cur, n, reportOnce, blocks, cfg.Comm)
		}
		// Paths into Exit with a lock still held and no deferred unlock
		// leak the mutex.
		for _, s := range b.Succs {
			if s != cfg.Exit {
				continue
			}
			names := make([]string, 0, len(cur))
			for name := range cur {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				e := cur[name]
				if !e.deferred {
					reportOnce(e.pos, "mutex "+displayLock(name)+" locked here is not released on every path; unlock before returning or defer the unlock")
				}
			}
		}
	}
	SortFindings(out)
	return out
}

// applyLockNode mutates the lock state with one node's effect and, when
// report is non-nil, flags blocking operations under a held lock. comm
// marks select communication statements, whose channel ops are charged to
// the SelectStmt choice point instead.
func applyLockNode(pkg *Package, fact lockFact, node ast.Node, report func(token.Pos, string), blocks map[*types.Func]any, comm map[ast.Node]bool) {
	blocking := func(pos token.Pos, what string) {
		if report == nil || len(fact) == 0 {
			return
		}
		names := make([]string, 0, len(fact))
		for name := range fact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			report(pos, "mutex "+displayLock(name)+" (locked at "+pkg.Fset.Position(fact[name].pos).String()+") is held across "+what+"; shrink the critical section")
		}
	}

	isComm := comm[node]
	switch n := node.(type) {
	case *ast.SendStmt:
		if !isComm {
			blocking(n.Pos(), "a channel send")
		}
		return
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			blocking(n.Pos(), "a blocking select")
		}
		return
	case *ast.RangeStmt:
		if isChanType(pkg, n.X) {
			blocking(n.Pos(), "a channel range")
		}
		return
	case *ast.DeferStmt:
		for _, name := range deferredUnlocks(pkg, n) {
			if e, ok := fact[name]; ok {
				e.deferred = true
				fact[name] = e
			}
		}
		return
	case *ast.GoStmt:
		return // the goroutine body runs elsewhere
	}

	// Everything else: scan for channel receives, lock/unlock calls, and
	// blocking calls, skipping nested function literals.
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !isComm {
				blocking(x.Pos(), "a channel receive")
			}
		case *ast.CallExpr:
			if name, mode, ok := lockCall(pkg, x); ok {
				switch mode {
				case "Lock", "RLock":
					key := name
					if mode == "RLock" {
						key += "/r"
					}
					fact[key] = lockEntry{pos: x.Pos()}
				case "Unlock", "RUnlock":
					key := name
					if mode == "RUnlock" {
						key += "/r"
					}
					delete(fact, key)
				}
				return true
			}
			if directBlockingCall(pkg, x) {
				blocking(x.Pos(), "a blocking call ("+callName(x)+")")
			} else if callee := CalleeFunc(pkg, x); callee != nil && callee.Pkg() == pkg.Types {
				if b, ok := blocks[callee].(bool); ok && b {
					blocking(x.Pos(), "a call to "+callee.Name()+", which blocks")
				}
			}
		}
		return true
	})
}

// lockCall recognizes x.Lock/Unlock/RLock/RUnlock/TryLock on a sync mutex
// and returns the canonical receiver name and the method.
func lockCall(pkg *Package, call *ast.CallExpr) (name, mode string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	s, isMethod := pkg.Info.Selections[sel]
	if !isMethod || !isMutexType(s.Recv()) {
		return "", "", false
	}
	return exprString(sel.X), sel.Sel.Name, true
}

// isMutexType reports sync.Mutex / sync.RWMutex (possibly behind pointers).
func isMutexType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// deferredUnlocks lists the locks a defer statement releases: a direct
// "defer mu.Unlock()" or unlock calls inside a deferred closure.
func deferredUnlocks(pkg *Package, d *ast.DeferStmt) []string {
	var names []string
	add := func(call *ast.CallExpr) {
		if name, mode, ok := lockCall(pkg, call); ok {
			switch mode {
			case "Unlock":
				names = append(names, name)
			case "RUnlock":
				names = append(names, name+"/r")
			}
		}
	}
	add(d.Call)
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				add(call)
			}
			return true
		})
	}
	return names
}

// httpRoundTrips are the net/http calls that wait on the network (or on
// connection drain); accessors like Request.PathValue are instant and must
// not count.
var httpRoundTrips = map[string]bool{
	"Get": true, "Post": true, "Head": true, "PostForm": true, "Do": true,
	"ListenAndServe": true, "ListenAndServeTLS": true, "Serve": true,
	"ServeTLS": true, "Shutdown": true, "RoundTrip": true,
}

// directBlockingCall recognizes calls that can block indefinitely:
// time.Sleep, WaitGroup.Wait, net/http round-trips, and LP solves.
// sync.Cond.Wait is exempt (it requires the lock by contract).
func directBlockingCall(pkg *Package, call *ast.CallExpr) bool {
	obj := calleeObject(pkg, call.Fun)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Pkg().Path() == "time" && obj.Name() == "Sleep":
		return true
	case obj.Pkg().Path() == "net/http" && httpRoundTrips[obj.Name()]:
		return true
	case obj.Pkg().Path() == "sync" && obj.Name() == "Wait":
		// WaitGroup.Wait blocks on outstanding work; Cond.Wait is the
		// sanctioned hold-the-lock wait.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok {
				return !isCondType(s.Recv())
			}
		}
		return true
	case strings.HasSuffix(obj.Pkg().Path(), "internal/lp") && strings.Contains(obj.Name(), "Solve"):
		return true
	}
	return false
}

// selectHasDefault reports whether a select has a default clause.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isCondType reports sync.Cond.
func isCondType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Cond"
}

// isChanType reports whether an expression has channel type.
func isChanType(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// callName renders a short name for a blocked-on call.
func callName(call *ast.CallExpr) string {
	return exprString(call.Fun)
}

// displayLock strips the read-mode suffix for messages.
func displayLock(name string) string {
	return strings.TrimSuffix(name, "/r")
}
