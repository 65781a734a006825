package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer of corrolint. The original eight
// analyzers are single-function AST checks; the three dataflow analyzers
// (detflow, ctxloop, sharedmutate) need to see through calls: a map-ordered
// value handed to a helper that appends it to a shared slice, a loop whose
// per-iteration work reaches an engine hot path three frames down, a worker
// goroutine mutating a captured struct via a method. Program builds that
// view over the already-loaded packages: one node per function declaration
// or function literal, call edges resolved through go/types (including
// function values passed as callbacks, the engine.Iterate / shard worker /
// push-iterator shape), and per-function summaries computed to a fixpoint.
//
// Everything is deliberately conservative and stdlib-only. Unresolvable
// calls (interface dynamics, function-typed variables) simply contribute no
// edge; the summaries only ever grow monotonically, so the fixpoint
// terminates and a missing edge can only cause a missed finding, never a
// spurious one (the analyzers report on positive evidence, not absence).

// hotPathFragments mark the packages whose call paths are the engine's
// per-round work: a loop driving them must stay cancellable (PR 4/5
// contract) and their outputs are the byte-identity surface.
var hotPathFragments = []string{"internal/core", "internal/engine"}

func isHotPath(path string) bool {
	for _, frag := range hotPathFragments {
		if strings.Contains(path, frag) {
			return true
		}
	}
	return false
}

// Program is the whole-program view the interprocedural analyzers consult:
// every function of every loaded package, indexed for call resolution, with
// summaries computed to a fixpoint.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	nodes  map[string]*funcNode // key → node
	byPkg  map[*Package][]*funcNode
	byBody map[ast.Node]*funcNode // FuncDecl / FuncLit → node
}

// funcNode is one analyzed function: a declaration (incl. methods) or a
// function literal.
type funcNode struct {
	key  string
	pkg  *Package
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
	sig  *types.Signature

	// params holds the receiver (when present) followed by the declared
	// parameters, in order; index into it is the "param index" used by all
	// summary bitsets.
	params []*types.Var
	// results are the declared result variables (named or not).
	results []*types.Var

	calls []callSite

	sum summary
}

// name renders the node for diagnostics.
func (n *funcNode) name() string {
	if n.decl != nil {
		if n.decl.Recv != nil && len(n.decl.Recv.List) > 0 {
			return fmt.Sprintf("(%s).%s", types.ExprString(n.decl.Recv.List[0].Type), n.decl.Name.Name)
		}
		return n.decl.Name.Name
	}
	return "func literal at " + n.pkg.Fset.Position(n.lit.Pos()).String()
}

// callSite is one syntactic call inside a node's body (literal bodies
// belong to the literal's own node).
type callSite struct {
	call *ast.CallExpr
	// calleeKey resolves to a program node when the callee is a declared
	// function/method or literal we loaded; "" otherwise.
	calleeKey string
	// calleePath is the defining package path of the callee object when
	// known ("" for builtins and unresolved calls).
	calleePath string
	calleeName string
	// args carries one entry per call argument: args[0] is the method
	// receiver for method calls, shifting the real arguments right by one
	// so indices line up with the callee node's params slice.
	args []argInfo
	// passesCtx reports that some argument has type context.Context.
	passesCtx bool
	inGo      bool
}

// argInfo binds one call argument back to the caller's scope.
type argInfo struct {
	expr ast.Expr
	// param is the index into the caller's params when the argument is
	// exactly that parameter (modulo &, *, parens); -1 otherwise.
	param int
	// obj is the root object of the argument expression (nil when the
	// argument has no identifier root).
	obj types.Object
}

// summary is the fixpoint state of one node. Every field only ever goes
// false→true (sets only grow), which makes the fixpoint monotone.
type summary struct {
	// checksCtx: the body (or a callee reachable from it) consults
	// ctx.Err()/ctx.Done() on a context.Context value.
	checksCtx bool
	// reachesHot: the body (or a callee) calls into a hot-path package.
	reachesHot bool
	// sinkParams: parameters the function accumulates into an ordered sink
	// visible outside the call — append to a global / field / pointer
	// target, string or float accumulation into the same, or an emission
	// call (fmt, Write/Encode) — so the CALLER's call order becomes output
	// order.
	sinkParams bitset
	// taintedResults: results whose element order derives from map
	// iteration or select arrival order.
	taintedResults bitset
	// mutParams: parameters whose fields are written without a sync token
	// (mutex/atomic) in this function or a callee receiving the parameter.
	mutParams bitset
	// mutCaptured: variables declared outside this function whose fields
	// are written (directly or by passing them to a mutating callee)
	// without a sync token. Only meaningful for function literals.
	mutCaptured map[types.Object]bool
}

// bitset is a small index set (parameter/result positions).
type bitset uint64

func (b bitset) has(i int) bool { return i >= 0 && i < 64 && b&(1<<uint(i)) != 0 }
func (b *bitset) set(i int) bool {
	if i < 0 || i >= 64 || b.has(i) {
		return false
	}
	*b |= 1 << uint(i)
	return true
}

// BuildProgram indexes the packages and computes the interprocedural
// summaries to a fixpoint. The packages should share one FileSet (the
// Loader guarantees this).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		nodes:  make(map[string]*funcNode),
		byPkg:  make(map[*Package][]*funcNode),
		byBody: make(map[ast.Node]*funcNode),
	}
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		prog.Packages = append(prog.Packages, pkg)
		prog.collect(pkg)
	}
	for _, nodes := range prog.byPkg {
		for _, n := range nodes {
			n.calls = prog.scanCalls(n)
		}
	}
	prog.fixpoint()
	return prog
}

// nodesIn returns the nodes of one package in source order.
func (p *Program) nodesIn(pkg *Package) []*funcNode { return p.byPkg[pkg] }

// nodeFor returns the node owning a FuncDecl or FuncLit, nil when unknown.
func (p *Program) nodeFor(body ast.Node) *funcNode { return p.byBody[body] }

// lookup resolves a node key ("" safe), nil when absent.
func (p *Program) lookup(key string) *funcNode {
	if key == "" {
		return nil
	}
	return p.nodes[key]
}

// funcKey derives the stable cross-package key of a declared function.
// types.Func.FullName is position-independent ("pkg.F", "(pkg.T).M",
// "(*pkg.T).M"), so two type-check runs of the same source (e.g. the
// dependency export view vs. the with-tests analysis view, or the two
// build-tag variants) agree on it.
func funcKey(f *types.Func) string { return f.FullName() }

// litKey keys a function literal by position, unique within a FileSet.
func litKey(fset *token.FileSet, lit *ast.FuncLit) string {
	return "lit@" + fset.Position(lit.Pos()).String()
}

// collect creates the nodes of one package: every FuncDecl with a body and
// every FuncLit anywhere in the files.
func (p *Program) collect(pkg *Package) {
	addNode := func(n *funcNode) {
		// Two build-tag variants of one package see the shared files twice;
		// first registration wins so edges resolve consistently.
		if _, dup := p.nodes[n.key]; dup {
			n.key = n.key + "#" + p.Fset.Position(n.body.Pos()).String()
			if _, dup2 := p.nodes[n.key]; dup2 {
				return
			}
		}
		p.nodes[n.key] = n
		p.byPkg[pkg] = append(p.byPkg[pkg], n)
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(an ast.Node) bool {
			switch fn := an.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					return true
				}
				sig, _ := obj.Type().(*types.Signature)
				if sig == nil {
					return true
				}
				n := &funcNode{
					key:     funcKey(obj),
					pkg:     pkg,
					decl:    fn,
					body:    fn.Body,
					sig:     sig,
					params:  sigParams(sig),
					results: sigResults(sig),
				}
				addNode(n)
				p.byBody[fn] = n
			case *ast.FuncLit:
				tv, ok := pkg.Info.Types[fn]
				if !ok {
					return true
				}
				sig, _ := tv.Type.(*types.Signature)
				if sig == nil {
					return true
				}
				n := &funcNode{
					key:     litKey(pkg.Fset, fn),
					pkg:     pkg,
					lit:     fn,
					body:    fn.Body,
					sig:     sig,
					params:  sigParams(sig),
					results: sigResults(sig),
				}
				addNode(n)
				p.byBody[fn] = n
			}
			return true
		})
	}
}

func sigParams(sig *types.Signature) []*types.Var {
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

func sigResults(sig *types.Signature) []*types.Var {
	var out []*types.Var
	for i := 0; i < sig.Results().Len(); i++ {
		out = append(out, sig.Results().At(i))
	}
	return out
}

// ownStmt reports whether n's body owns stmt positions directly, i.e. the
// walk should not descend into nested function literals (they are their
// own nodes).
func inspectOwn(n *funcNode, f func(ast.Node) bool) {
	ast.Inspect(n.body, func(an ast.Node) bool {
		if lit, ok := an.(*ast.FuncLit); ok && lit != n.lit {
			return false
		}
		return f(an)
	})
}

// calleeOf resolves the static callee of a call: a declared function,
// method, or conversion-free builtin. Generic instantiations unwrap to
// their generic object.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	switch e := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if f, ok := info.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// rootObj resolves the leftmost identifier of an expression to its object
// (unwrapping &x, *x, x.f, x[i], parens).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// paramIndex maps an argument expression onto the caller's parameter list:
// the index when the argument is that parameter (possibly &p, *p, or
// parenthesized), else -1. A field selector p.f is NOT the parameter — the
// callee then owns a sub-object, which the summaries treat separately.
func paramIndex(info *types.Info, params []*types.Var, e ast.Expr) int {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return -1
			}
			e = x.X
			continue
		case *ast.Ident:
			obj := info.Uses[x]
			for i, pv := range params {
				if obj == pv {
					return i
				}
			}
			return -1
		default:
			return -1
		}
	}
}

// isContextType matches context.Context (the interface itself, not
// implementations).
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// scanCalls records every call site directly inside a node's body with its
// resolution and argument bindings. Callback arguments — function values
// handed to another call, the engine.Iterate / stream shard worker /
// push-iterator shape — get their own synthetic edge so the callback's behavior
// propagates to the caller that will (indirectly) run it.
func (p *Program) scanCalls(n *funcNode) []callSite {
	info := n.pkg.Info
	var sites []callSite
	goCalls := make(map[*ast.CallExpr]bool)
	inspectOwn(n, func(an ast.Node) bool {
		if gs, ok := an.(*ast.GoStmt); ok {
			goCalls[gs.Call] = true
		}
		call, ok := an.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := callSite{call: call, inGo: goCalls[call]}
		if f := calleeOf(info, call); f != nil {
			site.calleeKey = funcKey(f)
			site.calleeName = f.Name()
			if f.Pkg() != nil {
				site.calleePath = f.Pkg().Path()
			}
		} else if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			site.calleeKey = litKey(p.Fset, lit)
			site.calleeName = "func literal"
			site.calleePath = pkgPathOf(n.pkg)
		}
		// Receiver slot: method calls bind the receiver as args[0] so the
		// indices line up with the callee node's params.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := info.Selections[sel]; isSel {
				site.args = append(site.args, argInfo{
					expr:  sel.X,
					param: paramIndex(info, n.params, sel.X),
					obj:   rootObj(info, sel.X),
				})
			}
		}
		for _, a := range call.Args {
			site.args = append(site.args, argInfo{
				expr:  a,
				param: paramIndex(info, n.params, a),
				obj:   rootObj(info, a),
			})
			if isContextType(info.TypeOf(a)) {
				site.passesCtx = true
			}
			// Callback edge: a known function value passed as an argument
			// may be invoked by the callee on the caller's behalf.
			if cb := callbackKey(p, info, a); cb != "" {
				sites = append(sites, callSite{call: call, calleeKey: cb, calleeName: "callback"})
			}
		}
		sites = append(sites, site)
		return true
	})
	return sites
}

// callbackKey resolves a function-typed argument to a program node key
// (declared function, method value, or literal), "" otherwise.
func callbackKey(p *Program, info *types.Info, arg ast.Expr) string {
	arg = ast.Unparen(arg)
	if lit, ok := arg.(*ast.FuncLit); ok {
		return litKey(p.Fset, lit)
	}
	t := info.TypeOf(arg)
	if t == nil {
		return ""
	}
	if _, ok := t.Underlying().(*types.Signature); !ok {
		return ""
	}
	switch e := arg.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			return funcKey(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return funcKey(f)
			}
		} else if f, ok := info.Uses[e.Sel].(*types.Func); ok {
			return funcKey(f)
		}
	}
	return ""
}

func pkgPathOf(pkg *Package) string {
	if pkg.Types != nil {
		return pkg.Types.Path()
	}
	return pkg.ImportPath
}

// fixpoint recomputes every node's summary from its body facts and the
// current callee summaries until nothing changes. All facts are monotone
// (they only accumulate), so this terminates.
func (p *Program) fixpoint() {
	// Deterministic node order keeps rounds reproducible (and usually
	// converges faster when callees precede callers, but correctness does
	// not depend on it).
	var all []*funcNode
	for _, pkg := range p.Packages {
		all = append(all, p.byPkg[pkg]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].body.Pos() < all[j].body.Pos() })
	for {
		changed := false
		for _, n := range all {
			if p.deriveSummary(n) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// deriveSummary folds one node's direct facts and callee summaries into its
// summary, reporting whether anything grew.
func (p *Program) deriveSummary(n *funcNode) bool {
	info := n.pkg.Info
	s := &n.sum
	changed := false
	grow := func(b *bool, v bool) {
		if v && !*b {
			*b = true
			changed = true
		}
	}

	// --- direct facts -----------------------------------------------------
	locked := bodyAcquiresSync(n)
	grow(&s.reachesHot, isHotPath(pkgPathOf(n.pkg)))
	inspectOwn(n, func(an ast.Node) bool {
		call, ok := an.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCtxCheck(info, call) {
			grow(&s.checksCtx, true)
		}
		return true
	})

	// Ordered-sink accumulation of parameters (direct forms).
	p.directSinks(n, &changed)

	// Order-tainted locals → results.
	tainted := p.taintedLocals(n)
	p.resultTaint(n, tainted, &changed)

	// Unsynchronized field writes (direct forms).
	if !locked {
		p.directMutations(n, &changed)
	}

	// --- propagation through calls ---------------------------------------
	for i := range n.calls {
		site := &n.calls[i]
		if site.calleePath != "" && isHotPath(site.calleePath) {
			grow(&s.reachesHot, true)
		}
		callee := p.lookup(site.calleeKey)
		if callee == nil {
			continue
		}
		grow(&s.checksCtx, callee.sum.checksCtx)
		grow(&s.reachesHot, callee.sum.reachesHot)
		for j, a := range site.args {
			if callee.sum.sinkParams.has(j) && a.param >= 0 {
				if s.sinkParams.set(a.param) {
					changed = true
				}
			}
			if callee.sum.mutParams.has(j) && !locked {
				if a.param >= 0 {
					if s.mutParams.set(a.param) {
						changed = true
					}
				} else if a.obj != nil && p.capturedBy(n, a.obj) {
					if s.markCaptured(a.obj) {
						changed = true
					}
				}
			}
		}
		// A literal's captured mutations surface in the encloser only for
		// objects that are ALSO outside the encloser; the encloser's own
		// locals mutated by its literals are its own business.
		for obj := range callee.sum.mutCaptured {
			if p.capturedBy(n, obj) && !locked {
				if s.markCaptured(obj) {
					changed = true
				}
			}
		}
	}
	return changed
}

func (s *summary) markCaptured(obj types.Object) bool {
	if s.mutCaptured == nil {
		s.mutCaptured = make(map[types.Object]bool)
	}
	if s.mutCaptured[obj] {
		return false
	}
	s.mutCaptured[obj] = true
	return true
}

// capturedBy reports whether obj is a variable declared outside n's body
// (a captured local of an enclosing function, a parameter of an enclosing
// function, or a package-level variable).
func (p *Program) capturedBy(n *funcNode, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	for _, pv := range n.params {
		if pv == obj {
			return false
		}
	}
	return !(obj.Pos() >= n.body.Pos() && obj.Pos() < n.body.End())
}

// isCtxCheck matches ctx.Err() and ctx.Done() calls on a context.Context
// value.
func isCtxCheck(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	return isContextType(info.TypeOf(sel.X))
}

// bodyAcquiresSync reports a visible synchronization token in the body: a
// mutex Lock/RLock or a sync/atomic call. A function that locks is treated
// as owning the synchronization for all writes on its path — coarse, but it
// matches the repo's "one mutex per shared structure" idiom; finer-grained
// races stay the race detector's job.
func bodyAcquiresSync(n *funcNode) bool {
	found := false
	inspectOwn(n, func(an ast.Node) bool {
		if found {
			return false
		}
		call, ok := an.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock":
				found = true
			}
		}
		if _, ok := pkgCall(n.pkg.Info, call, "sync/atomic"); ok {
			found = true
		}
		return !found
	})
	return found
}

// directSinks marks parameters the body itself accumulates into an ordered
// sink: append whose destination outlives the call (global, field, pointer
// target, captured variable), string/float compound accumulation into such
// a destination, or an emission call.
func (p *Program) directSinks(n *funcNode, changed *bool) {
	info := n.pkg.Info
	set := func(i int) {
		if n.sum.sinkParams.set(i) {
			*changed = true
		}
	}
	mentionsParam := func(e ast.Expr) int {
		idx := -1
		ast.Inspect(e, func(an ast.Node) bool {
			id, ok := an.(*ast.Ident)
			if !ok || idx >= 0 {
				return idx < 0
			}
			obj := info.Uses[id]
			for i, pv := range n.params {
				if obj == pv {
					idx = i
				}
			}
			return idx < 0
		})
		return idx
	}
	inspectOwn(n, func(an ast.Node) bool {
		switch st := an.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 1 {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin || info.Uses[id] == nil {
						dst := call.Args[0]
						if !p.outlivesCall(n, dst) {
							continue
						}
						// Also require the assignment target to be the same
						// long-lived destination (x = append(x, ...)).
						if i < len(st.Lhs) && types.ExprString(st.Lhs[i]) != types.ExprString(dst) {
							continue
						}
						for _, a := range call.Args[1:] {
							if pi := mentionsParam(a); pi >= 0 {
								set(pi)
							}
						}
					}
				}
			}
			if st.Tok == token.ADD_ASSIGN {
				for i, lhs := range st.Lhs {
					if !p.outlivesCall(n, lhs) {
						continue
					}
					t := info.TypeOf(lhs)
					if !isFloat(t) && !isString(t) {
						continue
					}
					if i < len(st.Rhs) {
						if pi := mentionsParam(st.Rhs[i]); pi >= 0 {
							set(pi)
						}
					}
				}
			}
		case *ast.CallExpr:
			if isEmissionCall(info, st) {
				for _, a := range st.Args {
					if pi := mentionsParam(a); pi >= 0 {
						set(pi)
					}
				}
			}
		}
		return true
	})
}

// outlivesCall reports whether an lvalue denotes storage visible after the
// function returns to its caller: a package-level variable, a field or
// element reached through a parameter/receiver, a dereferenced pointer
// parameter, or a captured variable of an enclosing function.
func (p *Program) outlivesCall(n *funcNode, e ast.Expr) bool {
	obj := rootObj(n.pkg.Info, e)
	if obj == nil {
		return false
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() {
		// Parameter roots only count when the expression goes THROUGH the
		// parameter (field/deref/index) — reassigning the parameter itself
		// is local.
		for _, pv := range n.params {
			if pv == obj {
				_, plain := ast.Unparen(e).(*ast.Ident)
				return !plain
			}
		}
		// Package-level variable, or variable declared outside this node
		// (captured).
		return p.capturedBy(n, obj)
	}
	return false
}

// isEmissionCall matches ordered-output producers: the fmt print family,
// encoding/json marshalling, and Write/Encode-style methods — the places
// where element order becomes observable output bytes. The Sprint family
// is deliberately excluded: one Sprintf per iteration builds a standalone
// string, which only becomes order-sensitive when accumulated across
// iterations — and accumulation is what the taint rule flags.
func isEmissionCall(info *types.Info, call *ast.CallExpr) bool {
	if name, ok := pkgCall(info, call, "fmt"); ok {
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return true
		}
	}
	if name, ok := pkgCall(info, call, "encoding/json"); ok {
		if strings.HasPrefix(name, "Marshal") {
			return true
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteAll", "Encode":
		// Only methods (a receiver selection), not package functions that
		// happen to share the name.
		_, isMethod := info.Selections[sel]
		return isMethod
	}
	return false
}

// taintedLocals computes the variables of n whose element order derives
// from map iteration or select arrival order:
//
//   - x accumulated inside a `range m` body over a map — x = append(x, ...)
//     or x = f(..., x, ...) (the helper-append shape mapdet cannot see);
//   - x assigned in two or more communication clauses of one select (the
//     value depends on arrival order);
//   - y := g(...) where a result of g is order-tainted per its summary;
//   - y := x / y = x copies of a tainted x.
//
// A variable that ever reaches a sort.*/slices.* call in the function is
// cleared: the approved collect → sort → emit pattern.
func (p *Program) taintedLocals(n *funcNode) map[types.Object]bool {
	info := n.pkg.Info
	tainted := make(map[types.Object]bool)
	sortedObjs := make(map[types.Object]bool)

	inspectOwn(n, func(an ast.Node) bool {
		call, ok := an.(*ast.CallExpr)
		if !ok {
			return true
		}
		_, isSort := pkgCall(info, call, "sort")
		if !isSort {
			_, isSort = pkgCall(info, call, "slices")
		}
		if !isSort {
			return true
		}
		for _, a := range call.Args {
			if obj := rootObj(info, a); obj != nil {
				sortedObjs[obj] = true
			}
		}
		return true
	})

	assignTargets := func(st *ast.AssignStmt, inMapRange bool, selectAssigns map[types.Object]int) {
		// x, y := g() — one call produces all targets; taint each target
		// whose result position is tainted per g's summary.
		multiCall := len(st.Rhs) == 1 && len(st.Lhs) > 1
		for i, lhs := range st.Lhs {
			obj := rootObj(info, lhs)
			if obj == nil || sortedObjs[obj] {
				continue
			}
			if selectAssigns != nil {
				selectAssigns[obj]++
			}
			var rhs ast.Expr
			if multiCall {
				rhs = st.Rhs[0]
			} else if i < len(st.Rhs) {
				rhs = st.Rhs[i]
			} else {
				continue
			}
			if inMapRange && !multiCall {
				// Accumulation: the RHS mentions the target itself.
				if exprMentions(info, rhs, obj) {
					tainted[obj] = true
				}
			}
			switch r := rhs.(type) {
			case *ast.Ident:
				if src := info.Uses[r]; src != nil && tainted[src] {
					tainted[obj] = true
				}
			case *ast.CallExpr:
				if callee := p.lookup(calleeKeyOf(info, r)); callee != nil {
					pos := 0
					if multiCall {
						pos = i
					}
					if callee.sum.taintedResults.has(pos) {
						tainted[obj] = true
					}
				}
			}
		}
	}

	var walk func(node ast.Node, inMapRange bool)
	walk = func(node ast.Node, inMapRange bool) {
		ast.Inspect(node, func(an ast.Node) bool {
			if an == node {
				return true
			}
			switch st := an.(type) {
			case *ast.FuncLit:
				return false
			case *ast.RangeStmt:
				over := inMapRange
				if t := info.TypeOf(st.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						over = true
					}
				}
				walk(st.Body, over)
				return false
			case *ast.SelectStmt:
				// A variable assigned in ≥2 comm clauses takes whichever
				// value arrived first: arrival-order taint.
				counts := make(map[types.Object]int)
				for _, cl := range st.Body.List {
					comm, ok := cl.(*ast.CommClause)
					if !ok {
						continue
					}
					perClause := make(map[types.Object]int)
					for _, s := range comm.Body {
						ast.Inspect(s, func(x ast.Node) bool {
							if as, ok := x.(*ast.AssignStmt); ok {
								assignTargets(as, inMapRange, perClause)
							}
							return true
						})
					}
					for obj := range perClause {
						counts[obj]++
					}
				}
				for obj, c := range counts {
					if c >= 2 && !sortedObjs[obj] {
						tainted[obj] = true
					}
				}
				return false
			case *ast.AssignStmt:
				assignTargets(st, inMapRange, nil)
			}
			return true
		})
	}
	// Two passes let a taint introduced late in the body flow through a
	// copy earlier control flow revisits (loops); the set is tiny so the
	// cost is negligible.
	walk(n.body, false)
	walk(n.body, false)
	return tainted
}

// calleeKeyOf is calleeOf reduced to the node key ("" when unresolved).
func calleeKeyOf(info *types.Info, call *ast.CallExpr) string {
	if f := calleeOf(info, call); f != nil {
		return funcKey(f)
	}
	return ""
}

// exprMentions reports whether e references obj.
func exprMentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(an ast.Node) bool {
		if id, ok := an.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// resultTaint marks results whose returned value is order-tainted.
func (p *Program) resultTaint(n *funcNode, tainted map[types.Object]bool, changed *bool) {
	if len(tainted) == 0 || len(n.results) == 0 {
		return
	}
	info := n.pkg.Info
	// Named results are themselves assignable objects.
	for i, rv := range n.results {
		if rv.Name() != "" && tainted[rv] {
			if n.sum.taintedResults.set(i) {
				*changed = true
			}
		}
	}
	inspectOwn(n, func(an ast.Node) bool {
		ret, ok := an.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && tainted[obj] {
					if n.sum.taintedResults.set(i) {
						*changed = true
					}
				}
			}
		}
		return true
	})
}

// directMutations marks parameters (and captured variables) whose fields
// the body writes: x.f = v, *p = v, x.f++ — through a parameter/receiver
// root or a captured root. Element writes through an index that involves a
// variable from outside the literal (the out[i] = r worker idiom, where i
// is the spawn loop's variable) are deliberately exempt: each goroutine
// owns a distinct slot there.
func (p *Program) directMutations(n *funcNode, changed *bool) {
	info := n.pkg.Info
	record := func(e ast.Expr) {
		e = ast.Unparen(e)
		switch e.(type) {
		case *ast.SelectorExpr, *ast.StarExpr:
		default:
			return
		}
		if indexedByCaptured(info, n, e) {
			return
		}
		obj := rootObj(info, e)
		if obj == nil {
			return
		}
		for i, pv := range n.params {
			if pv == obj {
				// A field chain rooted in a plain value parameter writes
				// only the callee's copy; it is a shared-state mutation
				// only when the path can reach caller memory.
				if aliasesCaller(info, e) && n.sum.mutParams.set(i) {
					*changed = true
				}
				return
			}
		}
		if p.capturedBy(n, obj) {
			if n.sum.markCaptured(obj) {
				*changed = true
			}
		}
	}
	inspectOwn(n, func(an ast.Node) bool {
		switch st := an.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(st.X)
		}
		return true
	})
}

// aliasesCaller reports whether a write through e can reach memory the
// caller shares with the callee: the path crosses an explicit deref, a
// pointer-typed selector base, or a slice/map element. Without such a hop
// the write lands in the callee's own copy of a value parameter.
func aliasesCaller(info *types.Info, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			return true
		case *ast.SelectorExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					return true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					return true
				}
			}
			e = x.X
		default:
			return false
		}
	}
}

// indexedByCaptured reports whether the access path of e contains an index
// expression whose index mentions a variable declared outside n — the
// "per-worker slot" idiom (out[i], shards[w]) where the spawner hands each
// goroutine a distinct element.
func indexedByCaptured(info *types.Info, n *funcNode, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			mentioned := false
			ast.Inspect(x.Index, func(an ast.Node) bool {
				id, ok := an.(*ast.Ident)
				if !ok || mentioned {
					return !mentioned
				}
				if obj := info.Uses[id]; obj != nil {
					if _, isVar := obj.(*types.Var); isVar && !(obj.Pos() >= n.body.Pos() && obj.Pos() < n.body.End()) {
						mentioned = true
					}
				}
				return !mentioned
			})
			if mentioned {
				return true
			}
			e = x.X
		default:
			return false
		}
	}
}
