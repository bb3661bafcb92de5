package analysis

// ctxpoll pins the cancellation contract (PR 5/PR 6): engine run
// bodies advance in cancelStride-sized strata and poll ctx between
// them, and batch entry points poll between vectors, so a deadline or
// shed decision takes effect within one stratum. A new per-vector or
// per-stratum loop that forgets the poll reintroduces unbounded
// cancellation latency — exactly the defect class this analyzer
// exists to catch.

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPoll is analyzer (5) of the suite. Three rules:
//
//  1. Library packages (anything not package main) must not call
//     context.Background(): the engine threads the caller's ctx
//     through core.Config, and a fresh background context silently
//     detaches work from cancellation.
//  2. In engine-scoped packages (import path ending in
//     internal/backend or internal/vecmp, or any file tagged
//     //mp:engine), a range loop over a [][]T batch whose body does
//     real work must poll cancellation: call ctx.Err/Done (any
//     receiver), one of the engine's poll helpers, or a same-package
//     function annotated //mp:polls. Validation-only loops — every
//     call inside a return statement — are exempt.
//  3. A for loop whose post statement advances by the cancellation
//     stride (an identifier containing "ancelStride") must poll in its
//     body; the stride exists only to bound poll latency.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "engine batch loops must poll cancellation; library code must not use context.Background",
	Run:  runCtxPoll,
}

// pollNames are call names accepted as cancellation polls: the
// context methods plus the engine's poll helpers.
var pollNames = map[string]bool{
	"Err":         true, // ctx.Err()
	"Done":        true, // <-ctx.Done()
	"ctxErr":      true, // core's stride poll helper
	"pollCancel":  true, // vecmp's batch poll helper
	"interrupted": true,
	"first":       true, // chunked engine's first-error latch
	"stop":        true,
	"BudgetErr":   true, // service budget gate doubles as a poll
}

func runCtxPoll(pass *Pass) error {
	engineScope := strings.HasSuffix(pass.Path, "internal/backend") ||
		strings.HasSuffix(pass.Path, "internal/vecmp")
	polls := pollTagged(pass)

	for _, file := range pass.Files {
		scoped := engineScope || fileHasTag(file, tagEngine)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if pass.Pkg.Name() != "main" {
					if path, name, ok := calleeName(pass.Info, n); ok && path == "context" && name == "Background" {
						pass.Reportf(n.Pos(), "context.Background() detaches library work from caller cancellation; thread ctx through Config")
					}
				}
			case *ast.RangeStmt:
				if scoped && isBatchRange(pass.Info, n) {
					checkLoopPolls(pass, polls, n.Body, "batch loop over vectors does real work without polling cancellation")
				}
			case *ast.ForStmt:
				if strideAdvance(n.Post) {
					checkLoopPolls(pass, polls, n.Body, "cancel-stride loop does not poll cancellation; the stride exists only to bound poll latency")
				}
			}
			return true
		})
	}
	return nil
}

// pollTagged collects the names of this package's //mp:polls
// functions, so calling one counts as polling.
func pollTagged(pass *Pass) map[string]bool {
	tagged := make(map[string]bool)
	for fd := range collectFuncTags(pass.Files).polls {
		tagged[fd.Name.Name] = true
	}
	return tagged
}

// isBatchRange reports whether the range expression is a slice of
// slices — the engine's batch shape ([][]T of vectors).
func isBatchRange(info *types.Info, rng *ast.RangeStmt) bool {
	t := info.Types[rng.X].Type
	if t == nil {
		return false
	}
	outer, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, ok = outer.Elem().Underlying().(*types.Slice)
	return ok
}

// checkLoopPolls reports msg at the loop body unless the body polls,
// or does no work outside return statements.
func checkLoopPolls(pass *Pass, polls map[string]bool, body *ast.BlockStmt, msg string) {
	var worked ast.Node
	polled := false
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if polled {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPoll(pass, polls, call) {
			polled = true
			return false
		}
		if isBuiltinCall(pass.Info, call) || inside[*ast.ReturnStmt](stack) {
			return true
		}
		if worked == nil {
			worked = call
		}
		return true
	})
	if worked != nil && !polled {
		pass.Reportf(worked.Pos(), "%s", msg)
	}
}

// isPoll reports whether the call is an accepted cancellation poll:
// one of the pollNames, or a same-package function tagged //mp:polls.
func isPoll(pass *Pass, polls map[string]bool, call *ast.CallExpr) bool {
	name := callName(call)
	if pollNames[name] {
		return true
	}
	if !polls[name] {
		return false
	}
	path, _, ok := calleeName(pass.Info, call)
	return ok && path == pass.Path
}

// strideAdvance reports whether a for-post statement advances by the
// cancellation stride (mentions an identifier containing
// "ancelStride", matching CancelStride and cancelStride).
func strideAdvance(post ast.Stmt) bool {
	if post == nil {
		return false
	}
	found := false
	ast.Inspect(post, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, "ancelStride") {
			found = true
		}
		return !found
	})
	return found
}
