package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlowPackages scopes ctxflow to the long-running serving layer, where a
// dropped context turns cancellation into a wedge: the shared job service
// and the daemon (internal/server), the cluster coordinator plumbing, and
// the distributed controller. The
// fixture package keeps the analyzer honest under test.
var CtxFlowPackages = []string{
	"internal/server",
	"internal/cluster",
	"internal/machine",
	"testdata/src/ctxflow",
}

// CtxFlow checks that functions RECEIVING a context.Context actually thread
// it into the blocking work they do. Two findings:
//
//   - a context.Background()/context.TODO() rebase with blocking work ahead
//     on some path (RPCs, channel operations, blocking selects, calls into
//     in-package functions that block — the same blocking vocabulary as
//     locksafe). The "ahead" is a backward dataflow over the CFG: a rebase
//     with nothing blocking downstream (building a value for a struct, a
//     post-cancel cleanup context at the very end of a path) is exempt;
//   - a loop that dispatches blocking work but never consults the context —
//     no ctx.Done()/ctx.Err() check and no ctx passed into any call in the
//     body — so a cancelled context would not stop it. Ranging over a
//     channel is exempt: close-to-terminate is that loop's contract.
//
// Functions without a ctx parameter are out of scope — constructors and
// Close methods legitimately root new contexts. Function literals are
// analyzed when they declare their own ctx parameter (RetryPolicy.Do ops);
// a literal merely capturing an outer ctx is the enclosing function's
// business. Test files are skipped.
type CtxFlow struct{}

// Name implements Analyzer.
func (CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (CtxFlow) Doc() string {
	return "ctx-receiving functions that rebase to Background/TODO before blocking work or loop over blocking dispatch without a ctx check"
}

// Check implements Analyzer.
func (c CtxFlow) Check(pkg *Package) []Finding {
	if !inScope(pkg.PkgPath, CtxFlowPackages) {
		return nil
	}
	blocks := blockingSummaries(pkg)
	var out []Finding
	funcBodies(pkg, func(name string, node ast.Node, body *ast.BlockStmt) {
		if isTestFile(pkg, node) || !receivesCtx(pkg, node) {
			return
		}
		out = append(out, c.checkRebases(pkg, body, blocks)...)
		out = append(out, c.checkLoops(pkg, body, blocks)...)
	})
	SortFindings(out)
	return out
}

// checkRebases solves the backward "blocking work ahead" fact and flags
// Background/TODO calls where it holds.
func (c CtxFlow) checkRebases(pkg *Package, body *ast.BlockStmt, blocks map[*types.Func]any) []Finding {
	cfg := BuildCFG(body)
	step := func(cur bool, n ast.Node) bool {
		if st, ok := n.(ast.Stmt); ok && terminates(st) {
			return false // nothing runs after a terminator
		}
		return cur || nodeBlocks(pkg, n, blocks, cfg.Comm)
	}
	flow := Flow{
		Bottom: func() Fact { return nil },
		Join: func(a, b Fact) Fact {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			return a.(bool) || b.(bool)
		},
		Equal: func(a, b Fact) bool { return a == b },
		Transfer: func(b *Block, out Fact) Fact {
			if out == nil {
				return nil
			}
			cur := out.(bool)
			for i := len(b.Nodes) - 1; i >= 0; i-- {
				cur = step(cur, b.Nodes[i])
			}
			return cur
		},
	}
	exitFacts := BackwardDataflow(cfg, false, flow)

	var out []Finding
	for _, b := range cfg.Blocks {
		fact := exitFacts[b]
		if fact == nil {
			continue
		}
		cur := fact.(bool)
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			n := b.Nodes[i]
			// A rebase feeding a blocking op in this same statement counts
			// as "ahead" too.
			if cur || nodeBlocks(pkg, n, blocks, cfg.Comm) {
				for _, call := range rebaseCalls(pkg, n) {
					out = append(out, Finding{
						Analyzer: c.Name(),
						Pos:      pkg.Fset.Position(call.Pos()),
						Message: "context." + calleeObject(pkg, call.Fun).Name() +
							"() discards the caller's ctx but blocking work lies ahead; derive from ctx so cancellation propagates",
					})
				}
			}
			cur = step(cur, n)
		}
	}
	return out
}

// checkLoops flags loops that dispatch blocking work without ever
// consulting a context.
func (c CtxFlow) checkLoops(pkg *Package, body *ast.BlockStmt, blocks map[*types.Func]any) []Finding {
	var out []Finding
	report := func(pos token.Pos) {
		out = append(out, Finding{
			Analyzer: c.Name(),
			Pos:      pkg.Fset.Position(pos),
			Message: "loop dispatches blocking work without consulting ctx; " +
				"check ctx.Done()/ctx.Err() or pass ctx into the blocking call so cancellation stops it",
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its own function; analyzed separately
		case *ast.ForStmt:
			if loopBlocksWithoutCtx(pkg, x.Body, blocks) {
				report(x.For)
			}
		case *ast.RangeStmt:
			// Ranging a channel blocks by design; the producer closing the
			// channel is that loop's cancellation signal.
			if !isChanType(pkg, x.X) && loopBlocksWithoutCtx(pkg, x.Body, blocks) {
				report(x.For)
			}
		}
		return true
	})
	return out
}

// loopBlocksWithoutCtx reports whether a loop body (function literals
// excluded) contains a blocking operation but no mention of any
// context-typed value.
func loopBlocksWithoutCtx(pkg *Package, body *ast.BlockStmt, blocks map[*types.Func]any) bool {
	blocking, consulted := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		if consulted {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			blocking = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				blocking = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				blocking = true
			}
		case *ast.RangeStmt:
			if isChanType(pkg, x.X) {
				blocking = true
			}
		case *ast.CallExpr:
			if directBlockingCall(pkg, x) {
				blocking = true
			} else if callee := CalleeFunc(pkg, x); callee != nil && callee.Pkg() == pkg.Types {
				if b, ok := blocks[callee].(bool); ok && b {
					blocking = true
				}
			}
		case ast.Expr:
			if tv, ok := pkg.Info.Types[x]; ok && tv.Type != nil && isContextType(tv.Type) {
				consulted = true
			}
		}
		return true
	})
	return blocking && !consulted
}

// nodeBlocks reports whether one CFG node performs a blocking operation,
// mirroring the locksafe vocabulary: channel sends/receives (unless they
// are select comm statements, charged to the choice point), blocking
// selects, channel ranges, direct blocking calls, and in-package callees
// that block. Defer and go bodies run elsewhere.
func nodeBlocks(pkg *Package, node ast.Node, blocks map[*types.Func]any, comm map[ast.Node]bool) bool {
	switch x := node.(type) {
	case *ast.SendStmt:
		return !comm[node]
	case *ast.SelectStmt:
		return !selectHasDefault(x)
	case *ast.RangeStmt:
		return isChanType(pkg, x.X)
	case *ast.DeferStmt, *ast.GoStmt:
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !comm[node] {
				found = true
			}
		case *ast.CallExpr:
			if directBlockingCall(pkg, x) {
				found = true
			} else if callee := CalleeFunc(pkg, x); callee != nil && callee.Pkg() == pkg.Types {
				if b, ok := blocks[callee].(bool); ok && b {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// rebaseCalls lists the context.Background/context.TODO calls in a CFG
// node, function literals excluded. A RangeStmt block node stands for its
// header only and a SelectStmt for the choice point — their bodies live in
// successor blocks and are scanned there.
func rebaseCalls(pkg *Package, node ast.Node) []*ast.CallExpr {
	switch x := node.(type) {
	case *ast.RangeStmt:
		node = x.X
	case *ast.SelectStmt:
		return nil
	}
	var out []*ast.CallExpr
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			obj := calleeObject(pkg, x.Fun)
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" &&
				(obj.Name() == "Background" || obj.Name() == "TODO") {
				out = append(out, x)
			}
		}
		return true
	})
	return out
}

// receivesCtx reports whether a FuncDecl/FuncLit declares a context.Context
// parameter.
func receivesCtx(pkg *Package, node ast.Node) bool {
	var ft *ast.FuncType
	switch fn := node.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
	case *ast.FuncLit:
		ft = fn.Type
	}
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if tv, ok := pkg.Info.Types[f.Type]; ok && tv.Type != nil && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "context" && o.Name() == "Context"
}
