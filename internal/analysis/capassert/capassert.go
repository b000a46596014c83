// Package capassert implements the salint analyzer for optional-capability
// type assertions.
//
// shmem capabilities — Notifier, Resetter, CASRetrier, TryScanner (and
// the other optional interfaces of the shmem package) — are exactly that:
// optional. The layering contract everywhere in this module is that a
// backend without a capability *degrades* — the wait layer falls back to
// blind backoff without a Notifier, the arena skips recycling without a
// Resetter — and never panics. A single-result assertion
// (mem.(shmem.Notifier)) hard-codes the capability's presence and turns a
// perfectly conformant notifier-less backend into a runtime panic at the
// assertion site.
//
// The analyzer requires every assertion to one of the shmem capability
// interfaces to use the comma-ok form (or a type switch, which cannot
// panic), so the no-capability branch exists and the fallback is at least
// expressible. Interfaces are matched by name and defining package name
// ("shmem"), so the rule covers fixtures and any future shmem-shaped
// package alike.
package capassert

import (
	"go/ast"

	"setagreement/internal/analysis"
)

// capabilities are the optional shmem interfaces whose presence must be
// probed, never assumed.
var capabilities = map[string]bool{
	"Notifier":   true,
	"Resetter":   true,
	"CASRetrier": true,
	"Stepper":    true,
	"TryScanner": true,
}

// Analyzer flags single-result assertions to shmem capability interfaces.
var Analyzer = &analysis.Analyzer{
	Name: "capassert",
	Doc:  "type assertions to shmem capability interfaces must be comma-ok with a fallback",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Comma-ok contexts: the assertion is the sole RHS of a two-target
		// assignment or declaration. Type switches never reach the check
		// (their guard has no asserted type recorded).
		ok := map[*ast.TypeAssertExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
					if ta, is := ast.Unparen(n.Rhs[0]).(*ast.TypeAssertExpr); is {
						ok[ta] = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == 2 && len(n.Values) == 1 {
					if ta, is := ast.Unparen(n.Values[0]).(*ast.TypeAssertExpr); is {
						ok[ta] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			ta, is := n.(*ast.TypeAssertExpr)
			if !is || ta.Type == nil || ok[ta] {
				return true
			}
			tv, found := pass.TypesInfo.Types[ta.Type]
			if !found {
				return true
			}
			for name := range capabilities {
				if analysis.NamedFrom(tv.Type, "shmem", name) {
					pass.Reportf(ta.Pos(), "single-result assertion to capability shmem.%s panics on backends without it — use the comma-ok form and degrade", name)
					return true
				}
			}
			return true
		})
	}
	return nil
}
