// Package ctxflow enforces cancellation plumbing in the packages of
// scope.CancellationAware: once a function receives a context.Context,
// the context must flow into everything it calls that can honour it.
// A dropped context is how a cancelled run keeps a min-cost-flow pivot
// loop or an assignment solve running to completion long after the
// caller gave up (the bug class fixed by making ctx the first
// parameter of mcf.Solver.Solve and matching.Solver.Solve).
//
// In a function that receives a context.Context, the analyzer reports:
//
//   - calls to context.Background() or context.TODO() — the received
//     context is the one to use;
//   - calls to a function or method F when a sibling FContext or
//     FWithContext exists (same package scope for functions, same
//     method set for methods) that accepts a context — the
//     context-aware variant is the one to call.
//
// In unexported functions that do not receive a context, calls to
// context.Background()/TODO() are also reported: internal helpers must
// accept a context from their caller, not mint a fresh one. Exported
// context-less functions are exempt — they are the documented
// convenience facades (mclegal.Legalize, flow.Run, refine.Optimize)
// whose contract is "no cancellation".
//
// Suppress a finding with //mclegal:ctx <why> on the call line or the
// line above.
package ctxflow

import (
	"go/ast"
	"go/types"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
)

// Analyzer is the ctxflow check.
var Analyzer = &framework.Analyzer{
	Name:      "ctxflow",
	Doc:       "thread received contexts into every context-capable callee; no fresh Background/TODO in the core (suppress with //mclegal:ctx)",
	Run:       run,
	Scope:     scope.CancellationAware,
	Directive: "ctx",
	Example:   "//mclegal:ctx this helper is documented as detach-on-return; its work outlives the request on purpose",
}

func run(pass *framework.Pass) error {
	if !framework.PathMatchesAny(pass.Pkg.Path(), scope.CancellationAware) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	hasCtx := acceptsContext(fn.Type().(*types.Signature))
	exported := ast.IsExported(fd.Name.Name)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		callee := staticCallee(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if isContextCtor(callee) {
			switch {
			case hasCtx:
				report(pass, call, "function already receives a context.Context; use it instead of context.%s()", callee.Name())
			case !exported:
				report(pass, call, "unexported function mints a fresh context with context.%s(); accept a context.Context from the caller instead", callee.Name())
			}
			return true
		}
		if !hasCtx {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || acceptsContext(sig) {
			return true // callee already takes the context at this site
		}
		if sibling := contextVariant(callee); sibling != nil {
			report(pass, call, "call to %s drops the received context; call %s instead", callee.Name(), sibling.Name())
		}
		return true
	})
}

func report(pass *framework.Pass, call *ast.CallExpr, format string, args ...any) {
	if pass.Suppressed("ctx", call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(), format, args...)
}

// staticCallee resolves a call to the function or method it statically
// invokes, or nil for builtins, function values, and interface calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// acceptsContext reports whether any parameter of sig is a
// context.Context.
func acceptsContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isContextCtor(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// contextVariant finds the context-accepting sibling of fn: a function
// named fn.Name()+"Context" or +"WithContext" in the same package
// scope, or for methods the same method set, that takes a
// context.Context parameter.
func contextVariant(fn *types.Func) *types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	for _, suffix := range [2]string{"Context", "WithContext"} {
		name := fn.Name() + suffix
		var obj types.Object
		if sig.Recv() != nil {
			obj, _, _ = types.LookupFieldOrMethod(sig.Recv().Type(), true, fn.Pkg(), name)
		} else if fn.Pkg() != nil {
			obj = fn.Pkg().Scope().Lookup(name)
		}
		cand, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if csig, ok := cand.Type().(*types.Signature); ok && acceptsContext(csig) {
			return cand
		}
	}
	return nil
}
