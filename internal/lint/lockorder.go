package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockClass names one mutex in the lock hierarchy: the field Field on
// type TypeName in the package whose import path ends with PathSuffix.
// A class's position in LockOrder.Classes is its rank — lower ranks must
// be acquired first.
type lockClass struct {
	PathSuffix string
	TypeName   string
	Field      string
	Label      string // human name used in diagnostics
}

// lockOrder builds a per-function mutex-acquisition sequence and checks
// it against the declared hierarchy, across packages and through
// interfaces: a call to an interface method (the registry's Persister)
// splices in the summaries of every concrete implementation found in the
// Program.
//
// The model is acquisition ORDER, not hold-set overlap: Registry.Snapshot
// documents "registry lock before the persister's" even though the store
// releases its own lock before returning, so overlap never exists — the
// invariant is about the sequence of first acquisitions on a path.
// Releases are therefore not modeled; a function that acquires the store
// lock, releases it, and then takes the registry lock is still flagged,
// which is exactly the rule the store's commit callback comment states
// ("commit re-enters the registry, whose lock ranks above the store's").
// Function literals are analyzed as independent anonymous functions
// (goroutine bodies and callbacks run on their own stacks); calls
// through plain func values are not resolved.
//
// Because releases are not modeled, sequential wiring code (a main that
// opens the store, then configures the registry) would trip the order
// rule without ever holding two locks; Packages therefore limits which
// functions are CHECKED to the packages that own the hierarchy.
// Summaries are still computed over the whole Program, so a checked
// function inherits acquisitions made anywhere it calls into.
type lockOrder struct {
	Classes []lockClass
	// Packages limits the violation pass to functions declared in these
	// import-path suffixes (nil = all).
	Packages []string
}

// defaultLockOrder is the repo's hierarchy: the registry lock outranks
// the store lock (see Registry.Snapshot and Store.worker).
func defaultLockOrder() lockOrder {
	return lockOrder{
		Classes: []lockClass{
			{PathSuffix: "internal/server", TypeName: "Registry", Field: "mu", Label: "server.Registry.mu"},
			{PathSuffix: "internal/store", TypeName: "Store", Field: "mu", Label: "store.Store.mu"},
		},
		Packages: []string{"internal/server", "internal/store"},
	}
}

func (lockOrder) Name() string { return "lockorder" }
func (lockOrder) Doc() string {
	return "mutexes must be acquired in declared rank order on every call path"
}

// lockEvent is one entry in a function's linear event sequence.
type lockEvent struct {
	pos     token.Pos
	class   int           // acquisition: class index, or -1
	callees []*types.Func // call: statically resolved targets (possibly via interface)
	label   string        // call: callee name for diagnostics
}

// lockNode is one analyzed function (declared or literal).
type lockNode struct {
	name    string
	pkgPath string
	obj     *types.Func // nil for function literals
	events  []lockEvent
	summary []int // ordered first-acquisition classes, fixpoint result
}

func (a lockOrder) Check(prog *Program) []Diagnostic {
	// Gather events. Function literals become anonymous nodes: their
	// bodies run on other goroutines or as callbacks, so their internal
	// order is checked but not folded into the enclosing function.
	var nodes []*lockNode
	byObj := make(map[*types.Func]*lockNode)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := funcObj(pkg, fd)
				if fn == nil {
					continue
				}
				node := &lockNode{name: pkg.Path + "." + fd.Name.Name, pkgPath: pkg.Path, obj: fn}
				var lits []*ast.FuncLit
				node.events, lits = a.collectEvents(prog, pkg, fd.Body, nil)
				nodes = append(nodes, node)
				byObj[fn] = node
				for _, lit := range lits {
					ln := &lockNode{name: node.name + ".func", pkgPath: pkg.Path}
					ln.events, _ = a.collectEvents(prog, pkg, lit.Body, lits)
					nodes = append(nodes, ln)
				}
			}
		}
	}

	// Fixpoint: a function's summary is the ordered dedup of its own
	// acquisitions and its callees' summaries. Summaries only grow, so
	// iteration terminates.
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			next := summarize(n, byObj)
			if !equalInts(next, n.summary) {
				n.summary = next
				changed = true
			}
		}
	}

	// Violation pass: walk each function's events linearly. A class from
	// a call's summary is only checked against classes acquired BEFORE
	// the call, so a callee that is itself inverted is reported once, at
	// the callee, not again at every caller.
	var out []Diagnostic
	seen := make(map[string]bool)
	for _, n := range nodes {
		if !inScope(n.pkgPath, a.Packages) {
			continue
		}
		acquired := []int{}
		for _, ev := range n.events {
			if ev.class >= 0 {
				out = a.report(out, seen, prog, n, acquired, ev.class, ev.pos, "")
				acquired = addClass(acquired, ev.class)
				continue
			}
			pre := append([]int(nil), acquired...)
			for _, callee := range ev.callees {
				cn := byObj[callee]
				if cn == nil {
					continue
				}
				for _, c := range cn.summary {
					if !hasClass(acquired, c) {
						out = a.report(out, seen, prog, n, pre, c, ev.pos, ev.label)
					}
					acquired = addClass(acquired, c)
				}
			}
		}
	}
	return out
}

func (a lockOrder) report(out []Diagnostic, seen map[string]bool, prog *Program, n *lockNode, held []int, c int, pos token.Pos, via string) []Diagnostic {
	for _, d := range held {
		if d <= c {
			continue
		}
		key := n.name + a.Classes[c].Label + a.Classes[d].Label
		if seen[key] {
			continue
		}
		seen[key] = true
		how := "acquires"
		if via != "" {
			how = "reaches (via " + via + ")"
		}
		out = append(out, diag(prog.Fset, "lockorder", pos,
			"%s %s after %s: the lock hierarchy requires %s before %s",
			how, a.Classes[c].Label, a.Classes[d].Label, a.Classes[c].Label, a.Classes[d].Label))
	}
	return out
}

// collectEvents walks body in syntactic order, skipping nested function
// literals (returned separately), and records acquisitions and calls.
func (a lockOrder) collectEvents(prog *Program, pkg *Package, body *ast.BlockStmt, _ []*ast.FuncLit) ([]lockEvent, []*ast.FuncLit) {
	var events []lockEvent
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c := a.acquisition(pkg, call); c >= 0 {
			events = append(events, lockEvent{pos: call.Pos(), class: c})
			return true
		}
		if callees, label := resolveCall(prog, pkg, call); len(callees) > 0 {
			events = append(events, lockEvent{pos: call.Pos(), class: -1, callees: callees, label: label})
		}
		return true
	})
	return events, lits
}

// acquisition matches `x.<field>.Lock()` / `.RLock()` where x's named
// type is a configured lock class; returns the class index or -1.
func (a lockOrder) acquisition(pkg *Package, call *ast.CallExpr) int {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return -1
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return -1
	}
	owner := derefNamed(pkg.Info.TypeOf(field.X))
	if owner == nil || owner.Obj().Pkg() == nil {
		return -1
	}
	for i, c := range a.Classes {
		if field.Sel.Name == c.Field && owner.Obj().Name() == c.TypeName &&
			inScope(owner.Obj().Pkg().Path(), []string{c.PathSuffix}) {
			return i
		}
	}
	return -1
}

// resolveCall maps a call expression to the declared functions it may
// invoke: a direct function or method call resolves to one target; a
// call through an interface resolves to the matching method on every
// concrete type in the Program that implements it.
func resolveCall(prog *Program, pkg *Package, call *ast.CallExpr) ([]*types.Func, string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}, fun.Name
		}
	case *ast.SelectorExpr:
		fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil, ""
		}
		recv := pkg.Info.TypeOf(fun.X)
		if recv != nil && isInterfaceType(recv) {
			iface, _ := recv.Underlying().(*types.Interface)
			if iface != nil {
				return implementors(prog, iface, fun.Sel.Name), exprText(fun)
			}
		}
		return []*types.Func{fn}, exprText(fun)
	}
	return nil, ""
}

// implementors finds method `name` on every concrete named type in the
// Program that satisfies iface (by value or pointer receiver).
func implementors(prog *Program, iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, tn := range names {
			obj, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			m, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pkg.Types, name)
			if fn, ok := m.(*types.Func); ok {
				out = append(out, fn)
			}
		}
	}
	return out
}

// summarize folds a node's events into its ordered first-acquisition
// summary using current callee summaries.
func summarize(n *lockNode, byObj map[*types.Func]*lockNode) []int {
	var sum []int
	for _, ev := range n.events {
		if ev.class >= 0 {
			sum = addClass(sum, ev.class)
			continue
		}
		for _, callee := range ev.callees {
			if cn := byObj[callee]; cn != nil {
				for _, c := range cn.summary {
					sum = addClass(sum, c)
				}
			}
		}
	}
	return sum
}

func funcObj(pkg *Package, fd *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return fn
}

func hasClass(s []int, c int) bool {
	for _, x := range s {
		if x == c {
			return true
		}
	}
	return false
}

func addClass(s []int, c int) []int {
	if hasClass(s, c) {
		return s
	}
	return append(s, c)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
