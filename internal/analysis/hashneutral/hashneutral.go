// Package hashneutral implements the simlint pass that statically
// enforces the observer contract: code annotated `//sim:observer` — the
// liveness watchdog, the nil-plan fault hooks, and through the annotated
// proc.Observer interface the SC-witness checker, the history trace
// writer and the replay commit log — may read simulation
// state freely but must never mutate it. Today that contract ("hash-neutral: on or off, the
// determinism hash is bit-identical") rests on 104 dynamic goldens; this
// pass catches the violation at lint time, before a golden ever runs.
//
// Annotation vocabulary:
//
//   - `//sim:observer` on a function, method or type: the function (or
//     every method of the type) is an observer and is checked. On an
//     interface, every named type implementing it is an observer; the
//     interface must be among the loaded packages, as it is under
//     `simlint ./...`.
//   - `//sim:observes` on a pointer field of an observer type: the field
//     points INTO simulation state (the watchdog's machine backref).
//     Unannotated pointer fields of an observer are presumed
//     observer-owned sinks (the trace writer's bufio.Writer) and may be
//     mutated freely.
//   - `//lint:observer <reason>` on a line: a justified exception (e.g.
//     the watchdog re-arming its own poll event on the engine).
//
// The analysis is flow-sensitive taint (lintkit.BuildCFG + Solve, union
// join). Taint roots are the receiver (when its type is not an observer),
// every pointer-shaped parameter, and loads of `//sim:observes` fields;
// taint propagates through selectors, indexing, dereferences, conversions
// and method results. A violation is any store through a tainted base,
// any mutating builtin (copy/clear/delete/append/send) applied to a
// tainted value, or any call that mutates a tainted operand. Whether a
// callee mutates an operand comes from a program-wide mutation summary
// computed on demand over every loaded package — standard library
// included, since lintkit type-checks std from source. Calls through
// interfaces or func values with tainted operands are unprovable and
// flagged.
package hashneutral

import (
	"go/ast"
	"go/token"
	"go/types"

	"bulksc/internal/analysis/lintkit"
)

// ObserverDirective marks observer functions and types.
const ObserverDirective = "//sim:observer"

// ObservesDirective marks observer-struct fields that point into sim state.
const ObservesDirective = "//sim:observes"

// Directive is the line-level suppression marker.
const Directive = "//lint:observer"

// Analyzer is the hashneutral pass.
var Analyzer = &lintkit.Analyzer{
	Name: "hashneutral",
	Doc: "prove //sim:observer code reads but never mutates simulation state " +
		"(taint from non-observer receivers/params and //sim:observes fields; " +
		"program-wide mutation summaries)",
	Run: run,
}

func run(pass *lintkit.Pass) (interface{}, error) {
	env := newEnv(pass.Program)
	if len(env.observerFuncs) == 0 && len(env.observerTypes) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		sup := pass.Suppressions(file, Directive)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !env.isObserverFunc(pass, fn) {
				continue
			}
			oc := &obsChecker{pass: pass, sup: sup, env: env}
			oc.checkBody(fn.Body, oc.roots(fn))
		}
	}
	return nil, nil
}

// env holds the program-wide annotation sets and the lazy mutation
// summaries, shared across the packages of one load.
type env struct {
	prog          *lintkit.Program
	observerFuncs map[types.Object]string // annotated functions/methods
	observerTypes map[types.Object]string // annotated types (*types.TypeName)
	observesField map[types.Object]string // //sim:observes fields

	decls map[types.Object]*funcDecl // every function decl in the program
	memo  map[types.Object][]bool    // mutation summary per operand
	stack map[types.Object]bool      // recursion guard
}

type funcDecl struct {
	fn  *ast.FuncDecl
	pkg *lintkit.Package
}

// envCache memoizes one env per Program: the pass runs once per package
// but the summaries and annotation sweeps are program-wide.
var envCache = map[*lintkit.Program]*env{}

func newEnv(prog *lintkit.Program) *env {
	if e, ok := envCache[prog]; ok {
		return e
	}
	e := &env{
		prog:          prog,
		observerFuncs: lintkit.CollectFuncDirectives(prog, ObserverDirective),
		observerTypes: lintkit.CollectTypeDirectives(prog, ObserverDirective),
		observesField: lintkit.CollectFieldDirectives(prog, ObservesDirective),
		decls:         make(map[types.Object]*funcDecl),
		memo:          make(map[types.Object][]bool),
		stack:         make(map[types.Object]bool),
	}
	for _, pkg := range prog.Packages {
		if pkg.TypesInfo == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					if obj := pkg.TypesInfo.Defs[fn.Name]; obj != nil {
						e.decls[obj] = &funcDecl{fn: fn, pkg: pkg}
					}
				}
			}
		}
	}
	envCache[prog] = e
	return e
}

// isObserverType reports whether t (after pointer deref) is an
// //sim:observer-annotated named type, or a concrete named type that
// implements an annotated interface.
func (e *env) isObserverType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, ok = e.observerTypes[named.Obj()]; ok {
		return true
	}
	if types.IsInterface(named) || named.TypeParams().Len() > named.TypeArgs().Len() {
		return false
	}
	ptr := types.NewPointer(named)
	//lint:deterministic order-insensitive existence test
	for obj := range e.observerTypes {
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok && types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// isObserverFunc reports whether fn is checked: annotated itself, or a
// method of an annotated type.
func (e *env) isObserverFunc(pass *lintkit.Pass, fn *ast.FuncDecl) bool {
	if _, ok := lintkit.FuncDirective(fn, ObserverDirective); ok {
		return true
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	return e.isObserverType(pass.TypesInfo.TypeOf(fn.Recv.List[0].Type))
}

// pointerShaped reports whether values of t can alias state mutable by
// the holder: pointers, slices, maps, chans, interfaces, funcs.
func pointerShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Interface, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

// ---------------------------------------------------------------------------
// Mutation summaries.
// ---------------------------------------------------------------------------

// summary returns, for each operand of fn (receiver first when fn is a
// method, then parameters), whether calling fn may mutate state reachable
// through it. Unknown bodies (no source, assembly) are pessimistically
// all-mutating for pointer-shaped operands. Recursion is cut optimistic
// (a cycle member observed mid-computation contributes no mutations of
// its own frame), which is the standard treatment and safe here because
// the final verdict re-examines every call site.
func (e *env) summary(obj types.Object) []bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	obj = fn.Origin()
	if s, ok := e.memo[obj]; ok {
		return s
	}
	if e.stack[obj] {
		return nil // cycle: optimistic
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	operands := operandVars(sig)
	d := e.decls[obj]
	if d == nil {
		// No source: assume every pointer-shaped operand may be mutated.
		s := make([]bool, len(operands))
		for i, v := range operands {
			s[i] = pointerShaped(v.Type())
		}
		e.memo[obj] = s
		return s
	}
	e.stack[obj] = true
	s := e.computeSummary(d, operands)
	delete(e.stack, obj)
	e.memo[obj] = s
	return s
}

// operandVars lists receiver (if any) then parameters.
func operandVars(sig *types.Signature) []*types.Var {
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// computeSummary analyzes one function body: a flow-insensitive
// derivation pass maps locals to the operands they may alias, then every
// mutation site charges the operands its target derives from.
func (e *env) computeSummary(d *funcDecl, operands []*types.Var) []bool {
	info := d.pkg.TypesInfo
	// Operand index by object; only pointer-shaped operands participate
	// (mutating a by-value copy cannot reach the caller).
	idx := make(map[types.Object]int)
	for i, v := range operands {
		if pointerShaped(v.Type()) {
			idx[v] = i
		}
	}
	mutated := make([]bool, len(operands))
	if len(idx) == 0 {
		return mutated
	}

	// derived maps each local to the operand set (bitmask, ≤64 operands)
	// it may alias. Iterate assignments to a fixpoint.
	derived := make(map[types.Object]uint64)
	var maskOf func(ast.Expr) uint64
	maskOf = func(x ast.Expr) uint64 {
		switch x := x.(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if obj == nil {
				return 0
			}
			if i, ok := idx[obj]; ok && i < 64 {
				return 1 << uint(i)
			}
			return derived[obj]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return maskOf(x.X)
			}
			return maskOf(x.X) // method value: keep the base's mask
		case *ast.IndexExpr:
			return maskOf(x.X)
		case *ast.IndexListExpr:
			return maskOf(x.X)
		case *ast.StarExpr:
			return maskOf(x.X)
		case *ast.ParenExpr:
			return maskOf(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				return maskOf(x.X)
			}
		case *ast.CallExpr:
			// Conversions pass their operand through.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				return maskOf(x.Args[0])
			}
		case *ast.TypeAssertExpr:
			return maskOf(x.X)
		}
		return 0
	}
	for pass := 0; pass < 4; pass++ {
		changed := false
		ast.Inspect(d.fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, isOperand := idx[obj]; isOperand {
					continue
				}
				m := maskOf(as.Rhs[i])
				if derived[obj]|m != derived[obj] {
					derived[obj] |= m
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	charge := func(mask uint64) {
		for i := range operands {
			if i < 64 && mask&(1<<uint(i)) != 0 {
				mutated[i] = true
			}
		}
	}

	ast.Inspect(d.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, ok := lhs.(*ast.Ident); ok {
					continue // rebind, not a store through an operand
				}
				charge(maskOf(storeBase(lhs)))
			}
		case *ast.IncDecStmt:
			if _, ok := n.X.(*ast.Ident); !ok {
				charge(maskOf(storeBase(n.X)))
			}
		case *ast.SendStmt:
			charge(maskOf(n.Chan))
		case *ast.CallExpr:
			e.chargeCall(info, n, maskOf, charge)
		}
		return true
	})
	return mutated
}

// storeBase peels an assignment target to the expression whose pointee is
// written: s.f → s, m[k] → m, *p → p, s.f[i].g → s. Used by the mutation
// summaries, where any operand the chain derives from is charged.
func storeBase(x ast.Expr) ast.Expr {
	for {
		switch e := x.(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return x
		}
	}
}

// writtenObject peels ONE access level off an assignment target: the
// expression naming the object the store writes into. s.f → s (the struct
// written), w.m.Commits → w.m (the machine written — taint must be judged
// there, not at the fully peeled receiver), log[0] → log, *p → p.
func writtenObject(lhs ast.Expr) ast.Expr {
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		return e.X
	case *ast.IndexExpr:
		return e.X
	case *ast.IndexListExpr:
		return e.X
	case *ast.StarExpr:
		return e.X
	case *ast.ParenExpr:
		return writtenObject(e.X)
	}
	return lhs
}

// chargeCall propagates mutation through one call site inside a summary
// body: operands passed at positions the callee mutates are charged.
func (e *env) chargeCall(info *types.Info, call *ast.CallExpr, maskOf func(ast.Expr) uint64, charge func(uint64)) {
	// Builtins with well-known effects.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "copy", "clear", "delete", "append":
				if len(call.Args) > 0 {
					charge(maskOf(call.Args[0]))
				}
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	callee := staticCallee(info, call)
	if callee == nil {
		// Interface method or func value: pessimistically mutates every
		// pointer-shaped operand it receives, receiver included.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				charge(maskOf(sel.X))
			}
		}
		for _, a := range call.Args {
			charge(maskOf(a))
		}
		return
	}
	sum := e.summary(callee)
	ops := make([]ast.Expr, 0, len(call.Args)+1)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			ops = append(ops, sel.X)
		}
	}
	ops = append(ops, call.Args...)
	for i, op := range ops {
		if i < len(sum) && sum[i] {
			charge(maskOf(op))
		}
	}
}

// staticCallee resolves a call to a concrete *types.Func, or nil.
func staticCallee(info *types.Info, call *ast.CallExpr) types.Object {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// An interface method has no body of its own: treat as unresolved.
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil
		}
	}
	return f.Origin()
}

// ---------------------------------------------------------------------------
// Observer-body taint check.
// ---------------------------------------------------------------------------

// fact is the set of tainted (sim-state-aliasing) local variables.
type fact map[types.Object]bool

type obsChecker struct {
	pass *lintkit.Pass
	sup  *lintkit.Suppressions
	env  *env

	reported map[token.Pos]bool
}

// roots computes the entry taint of an observer function: the receiver if
// its type is not itself an observer, and every pointer-shaped parameter
// not of an observer type.
func (oc *obsChecker) roots(fn *ast.FuncDecl) fact {
	f := fact{}
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, fld := range fields.List {
			t := oc.pass.TypesInfo.TypeOf(fld.Type)
			if t == nil || !pointerShaped(t) || oc.env.isObserverType(t) {
				continue
			}
			for _, name := range fld.Names {
				if obj := oc.pass.TypesInfo.Defs[name]; obj != nil {
					f[obj] = true
				}
			}
		}
	}
	add(fn.Recv)
	add(fn.Type.Params)
	return f
}

func (oc *obsChecker) checkBody(body *ast.BlockStmt, roots fact) {
	if oc.reported == nil {
		oc.reported = make(map[token.Pos]bool)
	}
	cfg := lintkit.BuildCFG(body)
	clone := func(f fact) fact {
		g := make(fact, len(f))
		//lint:deterministic order-insensitive set copy; result is a map again
		for k := range f {
			g[k] = true
		}
		return g
	}
	ins := lintkit.Solve(cfg, lintkit.FlowSpec[fact]{
		Entry:  func() fact { return clone(roots) },
		Bottom: func() fact { return fact{} },
		Clone:  clone,
		Join: func(dst, src fact) fact {
			//lint:deterministic order-insensitive set union
			for k := range src {
				dst[k] = true
			}
			return dst
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			//lint:deterministic order-independent set comparison
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(b *lintkit.Block, in fact) fact {
			for _, n := range b.Nodes {
				oc.transferNode(n, in, false)
			}
			return in
		},
	})
	for _, b := range cfg.Blocks {
		f := clone(ins[b])
		for _, n := range b.Nodes {
			oc.transferNode(n, f, true)
		}
	}
	// Function literals: re-check each with the function's roots plus the
	// literal's own pointer-shaped parameters (captured derived locals are
	// approximated by the roots, which cover the common capture — the
	// receiver or a parameter).
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		sub := clone(roots)
		if lit.Type.Params != nil {
			for _, fld := range lit.Type.Params.List {
				t := oc.pass.TypesInfo.TypeOf(fld.Type)
				if t == nil || !pointerShaped(t) || oc.env.isObserverType(t) {
					continue
				}
				for _, name := range fld.Names {
					if obj := oc.pass.TypesInfo.Defs[name]; obj != nil {
						sub[obj] = true
					}
				}
			}
		}
		oc.checkBody(lit.Body, sub)
		return false // checkBody recurses into nested literals itself
	})
}

func (oc *obsChecker) report(pos token.Pos, format string, args ...interface{}) {
	if oc.reported[pos] {
		return
	}
	if oc.sup.Suppressed(pos) {
		oc.reported[pos] = true
		return
	}
	oc.reported[pos] = true
	oc.pass.Reportf(pos, format, args...)
}

// tainted reports whether evaluating e may yield a reference into sim
// state.
func (oc *obsChecker) tainted(e ast.Expr, f fact) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := oc.pass.TypesInfo.Uses[e]
		return obj != nil && f[obj]
	case *ast.SelectorExpr:
		if sel, ok := oc.pass.TypesInfo.Selections[e]; ok {
			if sel.Kind() == types.FieldVal {
				if _, observes := oc.env.observesField[sel.Obj()]; observes {
					return true // //sim:observes field: a window into sim state
				}
				return oc.tainted(e.X, f)
			}
			return oc.tainted(e.X, f) // method value
		}
		return false // package-qualified identifier
	case *ast.IndexExpr:
		return oc.tainted(e.X, f)
	case *ast.IndexListExpr:
		return oc.tainted(e.X, f)
	case *ast.StarExpr:
		return oc.tainted(e.X, f)
	case *ast.ParenExpr:
		return oc.tainted(e.X, f)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return oc.tainted(e.X, f)
		}
		return false
	case *ast.TypeAssertExpr:
		return oc.tainted(e.X, f)
	case *ast.CallExpr:
		// Conversions pass taint through; a method/func result is tainted
		// when its receiver or any argument is (interior pointers:
		// machine.Proc(i) hands back sim state).
		if tv, ok := oc.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && oc.tainted(e.Args[0], f)
		}
		rt := oc.pass.TypesInfo.TypeOf(e)
		if rt == nil || !pointerShaped(rt) {
			return false
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if s, ok := oc.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if oc.tainted(sel.X, f) {
					return true
				}
			}
		}
		for _, a := range e.Args {
			if oc.tainted(a, f) {
				return true
			}
		}
		return false
	}
	return false
}

func (oc *obsChecker) transferNode(n ast.Node, f fact, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		// Stores through tainted bases first, then taint propagation into
		// rebound locals.
		for _, lhs := range n.Lhs {
			if _, ok := lhs.(*ast.Ident); ok {
				continue
			}
			base := writtenObject(lhs)
			if oc.tainted(base, f) && report {
				oc.report(lhs.Pos(), "observer writes sim state through %q "+
					"(observers must be hash-neutral: read-only on machine state; justify with %s <reason>)",
					exprString(base), Directive)
			}
		}
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if n.Tok == token.DEFINE {
					obj = oc.pass.TypesInfo.Defs[id]
				} else {
					obj = oc.pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				t := oc.pass.TypesInfo.TypeOf(lhs)
				if oc.tainted(n.Rhs[i], f) && pointerShaped(t) {
					f[obj] = true
				} else {
					delete(f, obj)
				}
			}
		} else if len(n.Rhs) == 1 {
			// x, y := f(a): taint every pointer-shaped result if the call
			// is tainted.
			t := oc.tainted(n.Rhs[0], f)
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if n.Tok == token.DEFINE {
					obj = oc.pass.TypesInfo.Defs[id]
				} else {
					obj = oc.pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				if t && pointerShaped(oc.pass.TypesInfo.TypeOf(lhs)) {
					f[obj] = true
				} else {
					delete(f, obj)
				}
			}
		}
		for _, r := range n.Rhs {
			oc.checkExprCalls(r, f, report)
		}
	case *ast.IncDecStmt:
		if _, ok := n.X.(*ast.Ident); !ok {
			if oc.tainted(writtenObject(n.X), f) && report {
				oc.report(n.X.Pos(), "observer writes sim state through %q "+
					"(observers must be hash-neutral; justify with %s <reason>)", exprString(writtenObject(n.X)), Directive)
			}
		}
	case *ast.SendStmt:
		if oc.tainted(n.Chan, f) && report {
			oc.report(n.Pos(), "observer sends on a sim-state channel %q (hash-neutrality violation)",
				exprString(n.Chan))
		}
		oc.checkExprCalls(n.Value, f, report)
	case *ast.RangeStmt:
		// Key/Value take taint from the ranged expression.
		t := oc.tainted(n.X, f)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := oc.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = oc.pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if t && pointerShaped(oc.pass.TypesInfo.TypeOf(id)) {
				f[obj] = true
			} else {
				delete(f, obj)
			}
		}
		oc.checkExprCalls(n.X, f, report)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					obj := oc.pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					if i < len(vs.Values) && oc.tainted(vs.Values[i], f) &&
						pointerShaped(oc.pass.TypesInfo.TypeOf(name)) {
						f[obj] = true
					}
				}
				for _, v := range vs.Values {
					oc.checkExprCalls(v, f, report)
				}
			}
		}
	case *ast.ExprStmt:
		oc.checkExprCalls(n.X, f, report)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			oc.checkExprCalls(r, f, report)
		}
	case *ast.DeferStmt:
		oc.checkCall(n.Call, f, report)
	case *ast.GoStmt:
		oc.checkCall(n.Call, f, report)
	case ast.Expr:
		oc.checkExprCalls(n, f, report)
	}
}

// checkExprCalls walks an expression and checks every call in it.
func (oc *obsChecker) checkExprCalls(e ast.Expr, f fact, report bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			oc.checkCall(n, f, report)
			return true // arguments may contain further calls
		case *ast.FuncLit:
			return false // analyzed separately with its own roots
		}
		return true
	})
}

// checkCall verifies one call inside an observer: no tainted operand may
// be mutated by the callee.
func (oc *obsChecker) checkCall(call *ast.CallExpr, f fact, report bool) {
	if !report {
		return
	}
	info := oc.pass.TypesInfo
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "copy", "clear", "delete", "append":
				if len(call.Args) > 0 && oc.tainted(call.Args[0], f) {
					oc.report(call.Pos(), "observer mutates sim state via %s(%s) "+
						"(hash-neutrality violation; justify with %s <reason>)",
						b.Name(), exprString(call.Args[0]), Directive)
				}
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	callee := staticCallee(info, call)
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recvExpr = sel.X
		}
	}
	if callee == nil {
		// Interface method or func value: unprovable.
		if recvExpr != nil && oc.tainted(recvExpr, f) {
			oc.report(call.Pos(), "observer calls %q on tainted sim state through an interface — "+
				"mutation cannot be ruled out (hash-neutrality; justify with %s <reason>)",
				exprString(call.Fun), Directive)
			return
		}
		for _, a := range call.Args {
			if t := info.TypeOf(a); t != nil && pointerShaped(t) && oc.tainted(a, f) {
				oc.report(call.Pos(), "observer passes tainted sim state %q to a dynamic call — "+
					"mutation cannot be ruled out (hash-neutrality; justify with %s <reason>)",
					exprString(a), Directive)
				return
			}
		}
		return
	}
	sum := oc.env.summary(callee)
	ops := make([]ast.Expr, 0, len(call.Args)+1)
	if recvExpr != nil {
		ops = append(ops, recvExpr)
	}
	ops = append(ops, call.Args...)
	for i, op := range ops {
		if i < len(sum) && sum[i] && oc.tainted(op, f) {
			oc.report(call.Pos(), "observer calls %s, which mutates its operand %q — sim state must stay "+
				"read-only in observers (justify with %s <reason>)",
				callee.Name(), exprString(op), Directive)
			return
		}
	}
}

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	}
	return "expr"
}
