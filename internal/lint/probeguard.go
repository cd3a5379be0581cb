package lint

import (
	"go/ast"
	"go/types"
)

// ProbeGuard enforces the one-branch cost of an unobserved run: every
// (*probe.Bus).Emit call site must be dominated by a Bus.Active (or
// AnyActive) guard, so that when nobody listens the hot path pays an
// array-length test and skips building the Event entirely. Two guard
// idioms are recognized:
//
//	if bus.Active(probe.TypePulse) { bus.Emit(...) }         // direct,
//	                                  // including `if b := ...; b.Active`
//	sentActive := nt.probes.Active(probe.TypeMessageSent)    // hoisted
//	...
//	if sentActive { nt.probes.Emit(...) }
//
// Emission sites that are unconditional by design — trace replay, the
// sharded coordinator's ordered merge of already-buffered events — carry
// a //syncsim:allowlist probeguard directive instead, keeping the
// exceptions auditable.
var ProbeGuard = &Analyzer{
	Name: "probeguard",
	Doc:  "require Bus.Emit call sites to be dominated by a Bus.Active guard",
	Run:  runProbeGuard,
}

func runProbeGuard(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeFunc(call)
			if !isMethod(fn, probeBusPath, "Bus", "Emit") {
				return true
			}
			if !p.emitGuarded(call) {
				out = append(out, Finding{
					Pos:     call.Pos(),
					Message: "Bus.Emit not dominated by a Bus.Active guard; unobserved runs must pay one branch, not an Event build",
				})
			}
			return true
		})
	}
	return out
}

// emitGuarded walks the ancestors of an Emit call looking for an
// enclosing if statement (entered through its then-branch) whose
// condition either calls Active/AnyActive directly or tests a boolean
// local that was assigned from such a call in the same function — the
// hoisted-guard pattern of per-item loops.
func (p *Pass) emitGuarded(call *ast.CallExpr) bool {
	fd := p.enclosingFunc(call)
	var prev ast.Node = call
	for cur := p.parent(call); cur != nil; prev, cur = cur, p.parent(cur) {
		ifStmt, ok := cur.(*ast.IfStmt)
		if !ok || ifStmt.Body != prev {
			continue
		}
		if p.containsActiveCall(ifStmt.Cond) {
			return true
		}
		if fd != nil && p.condHoistedFromActive(fd, ifStmt.Cond) {
			return true
		}
	}
	return false
}

// condHoistedFromActive reports whether cond references a boolean
// variable assigned from a Bus.Active/AnyActive call somewhere in fd's
// body (assignment or var declaration). The guard bool may be captured
// by a closure; fd is the outermost function declaration, so captures
// resolve too.
func (p *Pass) condHoistedFromActive(fd *ast.FuncDecl, cond ast.Expr) bool {
	for _, id := range exprIdents(cond) {
		obj := p.Pkg.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok {
			continue
		}
		if basic, ok := v.Type().Underlying().(*types.Basic); !ok || basic.Kind() != types.Bool {
			continue
		}
		if p.assignedFromActive(fd, obj) {
			return true
		}
	}
	return false
}

// assignedFromActive scans fd's body for an assignment or declaration
// binding obj to an expression containing an Active call.
func (p *Pass) assignedFromActive(fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				lobj := p.Pkg.Info.Defs[id]
				if lobj == nil {
					lobj = p.Pkg.Info.Uses[id]
				}
				if lobj != obj {
					continue
				}
				// Single-value or parallel assignment: check the
				// matching RHS when positions pair up, else any RHS.
				if len(n.Rhs) == len(n.Lhs) {
					if p.containsActiveCall(n.Rhs[i]) {
						found = true
					}
				} else {
					for _, rhs := range n.Rhs {
						if p.containsActiveCall(rhs) {
							found = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if p.Pkg.Info.Defs[id] != obj {
					continue
				}
				if len(n.Values) > i && p.containsActiveCall(n.Values[i]) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
