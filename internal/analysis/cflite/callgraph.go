// Call-graph construction and context-fact propagation for the
// interprocedural half of the concurrency analyzers.
//
// The graph covers one package's syntax but is no longer blind past its
// edges. Three kinds of call resolve:
//
//   - Same-package calls whose callee is a FuncDecl (plain functions,
//     methods on named receivers, method expressions) become edges, as
//     before.
//
//   - Calls through function-typed variables, struct fields, and
//     parameters resolve when the bound value is package-visible and
//     unique — a single static assignment of a FuncDecl reference or a
//     FuncLit (see funcval.go). Unique FuncLit bindings get synthetic
//     nodes of their own, so a package-level `var run = func() {...}`
//     is a first-class graph citizen.
//
//   - Cross-package calls resolve against the facts the callee's package
//     exported when it was analyzed earlier in the same driver run
//     (dependency order): the callee becomes a leaf node pre-seeded with
//     its propagated requires/consults facts (see fact.go).
//
//   - Interface-method calls resolve through the devirtualization ladder
//     in iface.go: a receiver binding with a unique concrete type, a
//     module-wide sole implementor, or a synthetic consensus node when
//     every implementor's facts agree.
//
// Everything else — unresolved interface methods, ambiguous function
// values, calls into packages with no exported facts — stays outside the
// graph and is treated conservatively by the fact propagation below.
package cflite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxArgKind classifies the context argument of one resolved call.
type CtxArgKind int

const (
	// CtxArgNone: the call passes no context-typed argument.
	CtxArgNone CtxArgKind = iota
	// CtxArgBackground: the call mints a fresh root context in place —
	// a direct context.Background() or context.TODO() argument — which
	// severs the caller's cancellation chain.
	CtxArgBackground
	// CtxArgLive: the call passes some live context value (a parameter,
	// a derived context, a field).
	CtxArgLive
)

// CallSite is one resolved call.
type CallSite struct {
	// Call is the syntax of the call.
	Call *ast.CallExpr
	// Callee is the called function's node (possibly external or a bound
	// function literal).
	Callee *FuncNode
	// CtxArg classifies the context argument the call passes, if any.
	CtxArg CtxArgKind
	// Iface, when the call was written against an interface method and
	// devirtualized, is that interface method's object path (the Callee
	// is the resolved implementor or a consensus node). Empty for direct
	// calls.
	Iface string
}

// FuncNode is one function known to the graph: a declaration of the
// package, a function literal uniquely bound to a variable or field, or
// an external function represented by its imported facts.
type FuncNode struct {
	// Decl is the function's declaration (Body may be nil for
	// assembly-backed declarations; such nodes carry no direct facts).
	// Nil for bound-literal and external nodes.
	Decl *ast.FuncDecl
	// Lit is the function literal for a bound-literal node.
	Lit *ast.FuncLit
	// BindName is the variable or field name a bound literal was
	// assigned to, used where a declared name would be.
	BindName string
	// Enclosed marks a bound literal that appears inside some declared
	// function's body: its syntax is already covered by the enclosing
	// node's body walks, so analyzers skip it to avoid double reporting
	// (the node still exists to give calls through the binding an edge).
	Enclosed bool
	// External marks a node standing for another package's function,
	// reconstructed from that package's exported facts. It has no body;
	// its propagated facts below are fixed.
	External bool
	// Obj is the *types.Func object: from the type-checker's Defs map
	// for declarations, from the import for external nodes, nil for
	// bound literals.
	Obj types.Object
	// Calls lists the resolved calls made anywhere in the body,
	// including inside function literals and go/defer statements.
	Calls []CallSite

	// CtxParams names the function's context.Context parameters.
	CtxParams []string
	// Spawns: the body contains a go statement.
	Spawns bool
	// Unbounded: the body contains a structurally unbounded for loop.
	Unbounded bool
	// ConsultsDirect: the body calls Done/Err/Deadline/Value on a
	// context-typed expression.
	ConsultsDirect bool
	// ForwardsLive: the body hands a live (non-minted) context onward —
	// as an argument to any call, in or out of the graph, as a return
	// value, or embedded in a composite literal (the context-wrapper
	// shape of internal/obs).
	ForwardsLive bool
	// forwardsOutside: a live context leaves the graph (unknown callee);
	// the propagation assumes the recipient consults it. A live ctx
	// passed to a callee with known facts does NOT set this — the
	// callee's own Consults fact decides.
	forwardsOutside bool

	// Requires is set by Propagate: executing this function may spawn a
	// goroutine or loop unboundedly, directly or via any callee, so
	// cancellation must be wired through it.
	Requires bool
	// RequiresVia is the callee through which a purely transitive
	// requirement first arrived (nil when the requirement is direct).
	RequiresVia *FuncNode
	// FactVia, on an external node, is the first hop recorded in the
	// exporting package when its requirement was transitive ("via
	// forEachIndexed"), for diagnostics and provenance.
	FactVia string
	// Consults is set by Propagate: the function consults a context
	// directly, or passes a live context to a callee that (transitively)
	// does, or passes a live context outside the graph (assumed
	// consulted).
	Consults bool

	// Implementors, on a synthetic consensus node, lists the object paths
	// of the agreeing implementors the node stands for.
	Implementors []string
	// IfaceUnresolved records, per calling function, the interface-method
	// calls that stayed conservative because implementors disagreed, as
	// human-readable provenance strings naming the disagreeing set.
	IfaceUnresolved []string
}

// Name returns the function's name: the declared name, the bound
// variable/field name for literals, or "pkg.Name" for external nodes.
func (n *FuncNode) Name() string {
	switch {
	case n.Decl != nil:
		return n.Decl.Name.Name
	case n.External && n.Obj != nil:
		if pkg := n.Obj.Pkg(); pkg != nil {
			return pkg.Name() + "." + n.Obj.Name()
		}
		return n.Obj.Name()
	default:
		return n.BindName
	}
}

// FullName returns the fully qualified object path for declared and
// external nodes (types.Func.FullName), or Name() for bound literals.
func (n *FuncNode) FullName() string {
	if fn, ok := n.Obj.(*types.Func); ok {
		return fn.FullName()
	}
	return n.Name()
}

// Body returns the function's body syntax: the declaration's or the
// bound literal's. Nil for external and body-less nodes.
func (n *FuncNode) Body() *ast.BlockStmt {
	switch {
	case n.Decl != nil:
		return n.Decl.Body
	case n.Lit != nil:
		return n.Lit.Body
	}
	return nil
}

// Pos returns the position of the node's declaration or bound literal
// (token.NoPos for external nodes, which have no syntax).
func (n *FuncNode) Pos() token.Pos {
	switch {
	case n.Decl != nil:
		return n.Decl.Pos()
	case n.Lit != nil:
		return n.Lit.Pos()
	}
	return token.NoPos
}

// Direct reports whether the node's cancellation requirement is its own
// (a spawn or unbounded loop in its body) rather than inherited.
func (n *FuncNode) Direct() bool { return n.Spawns || n.Unbounded }

// ExternalFacts resolves a cross-package function object to the facts
// its package exported, if that package was analyzed earlier in the
// driver run. Nil disables cross-package resolution.
type ExternalFacts func(obj types.Object) (FuncFacts, bool)

// Externals bundles the module-level lookups the graph uses to resolve
// past the package boundary. The zero value disables all of them.
type Externals struct {
	// Facts resolves a cross-package function object to its exported
	// facts.
	Facts ExternalFacts
	// Impls returns the merged module-wide implementor fact for an
	// interface method; ok is false when type-level devirtualization is
	// unusable for it (interface declared outside the closed world, or
	// nothing collected).
	Impls func(ifn *types.Func) (ImplFacts, bool)
	// FactsByPath resolves an implementor known only by object path (a
	// merged implementor record) to its exported facts.
	FactsByPath func(objPath string) (FuncFacts, bool)
}

// CallGraph is the per-package call graph with cross-package leaves.
type CallGraph struct {
	// Nodes holds every declared function in file/declaration order,
	// followed by the synthetic nodes of uniquely bound function
	// literals in binding-discovery order. External nodes are not
	// listed; they only appear as CallSite callees.
	Nodes []*FuncNode

	byObj        map[types.Object]*FuncNode
	byName       map[string]*FuncNode
	ext          map[types.Object]*FuncNode
	extByPath    map[string]*FuncNode
	exts         Externals
	ifaceBind    map[types.Object]ifaceBinding
	consensus    map[*types.Func]*FuncNode
	consensusWhy map[*types.Func]string
}

// BuildCallGraph constructs the package call graph over files and
// records each function's direct observations. exts supplies the
// module-level lookups (cross-package facts, interface implementors);
// the zero Externals disables cross-package and type-level interface
// resolution. Call Propagate afterwards to compute the interprocedural
// Requires/Consults facts.
func BuildCallGraph(info *types.Info, files []*ast.File, exts Externals) *CallGraph {
	g := &CallGraph{
		byObj:        map[types.Object]*FuncNode{},
		byName:       map[string]*FuncNode{},
		ext:          map[types.Object]*FuncNode{},
		extByPath:    map[string]*FuncNode{},
		exts:         exts,
		consensus:    map[*types.Func]*FuncNode{},
		consensusWhy: map[*types.Func]string{},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			node := &FuncNode{Decl: fd, Obj: info.Defs[fd.Name]}
			g.Nodes = append(g.Nodes, node)
			if node.Obj != nil {
				g.byObj[node.Obj] = node
				if fn, ok := node.Obj.(*types.Func); ok {
					g.byName[fn.FullName()] = node
				}
			}
		}
	}
	g.resolveBindings(info, files)
	for _, n := range g.Nodes {
		g.observe(info, n)
	}
	return g
}

// externalNode returns (creating on first use) the leaf node standing
// for another package's function, or nil when no facts were exported
// for it.
func (g *CallGraph) externalNode(obj types.Object) *FuncNode {
	if n, ok := g.ext[obj]; ok {
		return n
	}
	var node *FuncNode
	if g.exts.Facts != nil {
		if f, ok := g.exts.Facts(obj); ok {
			node = &FuncNode{
				External:  true,
				Obj:       obj,
				CtxParams: sigCtxParams(obj),
				Spawns:    f.Spawns,
				Unbounded: f.Unbounded,
				Requires:  f.Requires,
				Consults:  f.Consults,
				FactVia:   f.Via,
			}
		}
	}
	g.ext[obj] = node // negative results cached too
	return node
}

// sigCtxParams lists the context.Context parameter names of obj's
// signature (the external-node analog of CtxParams, which needs syntax).
func sigCtxParams(obj types.Object) []string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var names []string
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); IsContext(p.Type()) {
			names = append(names, p.Name())
		}
	}
	return names
}

// observe records one function's direct facts and resolved call sites.
func (g *CallGraph) observe(info *types.Info, n *FuncNode) {
	if n.Decl != nil {
		n.CtxParams = CtxParams(info, n.Decl.Type)
	} else if n.Lit != nil {
		n.CtxParams = CtxParams(info, n.Lit.Type)
	}
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.GoStmt:
			n.Spawns = true
		case *ast.ForStmt:
			if Unbounded(node) {
				n.Unbounded = true
			}
		case *ast.CallExpr:
			g.observeCall(info, n, node)
		case *ast.ReturnStmt:
			// Returning a live ctx forwards it to the caller (the shape of
			// context wrappers); it is not a dead parameter, but the return
			// does not count as consulting.
			for _, res := range node.Results {
				if IsContext(info.TypeOf(res)) && !mintsContext(info, res) {
					n.ForwardsLive = true
				}
			}
		case *ast.CompositeLit:
			// Embedding a live ctx in a struct literal (a derived context
			// carrying extra values) likewise forwards it.
			for _, elt := range node.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if IsContext(info.TypeOf(elt)) && !mintsContext(info, elt) {
					n.ForwardsLive = true
				}
			}
		}
		return true
	})
}

func (g *CallGraph) observeCall(info *types.Info, n *FuncNode, call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Done", "Err", "Deadline", "Value":
			if IsContext(info.TypeOf(sel.X)) {
				n.ConsultsDirect = true
			}
		}
	}
	arg := ctxArgKind(info, call)
	callee, iface := g.resolveCallee(info, n, call)
	if arg == CtxArgLive {
		n.ForwardsLive = true
		if callee == nil && !isObsCallee(calleeObject(info, call)) {
			n.forwardsOutside = true
		}
	}
	if callee != nil {
		n.Calls = append(n.Calls, CallSite{Call: call, Callee: callee, CtxArg: arg, Iface: iface})
	}
}

// resolveCallee resolves a call to its graph node: a same-package
// declaration or bound function value (byObj), a devirtualized interface
// method, or an external leaf from exported facts. iface is the
// interface method's object path when devirtualization supplied the
// node. n, when non-nil, receives provenance for interface calls left
// conservative by disagreeing implementors.
func (g *CallGraph) resolveCallee(info *types.Info, n *FuncNode, call *ast.CallExpr) (callee *FuncNode, iface string) {
	obj := calleeObject(info, call)
	// byObj resolves same-package declarations and — through the binding
	// pass — function-typed variables, fields, and parameters with a
	// unique static target.
	if callee := g.byObj[obj]; callee != nil {
		return callee, ""
	}
	if obj == nil || isObsCallee(obj) {
		return nil, ""
	}
	if ifn, ok := ifaceMethod(obj); ok {
		var recv types.Object
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv = receiverObject(info, sel.X)
		}
		callee, why := g.devirt(ifn, recv)
		if callee == nil {
			if why != "" && n != nil {
				n.IfaceUnresolved = appendUnique(n.IfaceUnresolved, why)
			}
			return nil, ""
		}
		return callee, ifn.FullName()
	}
	if _, isFunc := obj.(*types.Func); isFunc {
		return g.externalNode(obj), ""
	}
	return nil, ""
}

// ResolveCall resolves a call expression to its graph node the same way
// edge construction does — declarations, bound function values, and
// devirtualized interface methods — for analyzers that inspect call
// syntax directly (waitleak's spawn targets). Nil when unresolved.
func (g *CallGraph) ResolveCall(info *types.Info, call *ast.CallExpr) *FuncNode {
	callee, _ := g.resolveCallee(info, nil, call)
	return callee
}

func appendUnique(list []string, s string) []string {
	for _, have := range list {
		if have == s {
			return list
		}
	}
	return append(list, s)
}

// isObsCallee reports whether obj names a function of an observability
// package (import path ending in internal/obs). Span and metric helpers
// record the ctx's trace lineage but never wire cancellation through it,
// so a live ctx handed to them clears the dead-parameter rule without
// counting as consulted: a spawner whose only ctx use is starting a span
// still needs a real cancellation point. The carve-out also wins over
// exported facts — obs functions consult ctx values internally, but that
// must not launder a missing cancellation point.
func isObsCallee(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// calleeObject resolves a call's target to the object it names: a
// *types.Func for direct calls and method calls, a *types.Var for calls
// through function-typed variables or fields, or nil for anything the
// type-checker cannot pin down.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		// Covers x.m() on named receivers, T.m method expressions, and
		// x.field() function-field calls: Uses maps the selected
		// identifier to the *types.Func or field *types.Var.
		return info.Uses[fun.Sel]
	}
	return nil
}

// ctxArgKind classifies the context argument a call passes.
func ctxArgKind(info *types.Info, call *ast.CallExpr) CtxArgKind {
	kind := CtxArgNone
	for _, arg := range call.Args {
		if !IsContext(info.TypeOf(arg)) {
			continue
		}
		if mintsContext(info, arg) {
			if kind == CtxArgNone {
				kind = CtxArgBackground
			}
			continue
		}
		return CtxArgLive
	}
	return kind
}

// mintsContext reports whether e is a direct context.Background() or
// context.TODO() call.
func mintsContext(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := calleeObject(info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return false
	}
	return obj.Name() == "Background" || obj.Name() == "TODO"
}

// Propagate iterates the per-function facts to a fixed point:
//
//   - Requires(f) = f spawns or loops unboundedly, or any callee of f
//     requires a context (the transitive closure over all resolved call
//     edges — same-package, bound-value, and cross-package — whatever
//     arguments the calls pass).
//   - Consults(f) = f consults a context directly, or passes a live
//     context to a callee that consults, or passes a live context
//     outside the graph (assumed consulted). A live context passed to a
//     callee with known facts is consulted only if those facts say so.
//
// External nodes enter with their exported facts fixed and have no call
// sites, so they act as constant boundary conditions. Both facts are
// monotone over a finite domain, so iteration terminates.
func (g *CallGraph) Propagate() {
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if !n.Requires && n.Direct() {
				n.Requires = true
				changed = true
			}
			consults := n.ConsultsDirect || n.forwardsOutside
			for i := range n.Calls {
				cs := &n.Calls[i]
				if !n.Requires && cs.Callee.Requires {
					n.Requires = true
					n.RequiresVia = cs.Callee
					changed = true
				}
				if cs.CtxArg == CtxArgLive && cs.Callee.Consults {
					consults = true
				}
			}
			if consults && !n.Consults {
				n.Consults = true
				changed = true
			}
		}
	}
}
