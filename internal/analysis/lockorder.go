package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces the switch's documented lock rules (DESIGN §11–15)
// mechanically instead of by convention. Every mutex acquisition is
// classified by the struct field that owns it — "port.mu",
// "serialAdmitter.mu" — and the analyzer builds an intra-package
// acquisition-order graph: an edge A→B means some path acquires class B
// while a class-A lock is held, including acquisitions made by direct (and
// transitive) intra-package callees. Three invariants are checked:
//
//  1. One port at a time: a path never holds two port locks at once. Every
//     switch operation works under exactly one port mutex, which is what
//     makes the fabric deadlock-free without an order among ports.
//  2. No cycles: mutually inverted acquisition orders (A→B somewhere, B→A
//     somewhere else) are a latent deadlock and are reported at the edge
//     that closes the cycle.
//  3. Never-ring: ring buffers are single-producer/single-consumer by
//     contract (DESIGN §14) and synchronize with atomics alone. A
//     ring-named struct type declaring a mutex field, or any acquisition of
//     a mutex owned by a ring-named type, is reported.
//
// The walk is per package, so the VC table's writer mutex (internal/vctable,
// taken under a port mutex by both planes) is out of its sight; that mutex
// is a leaf by construction — vctable calls nothing while holding it — and
// its doc comment says so.
//
// A re-acquisition of the very same lock expression via Lock (not RLock) is
// additionally flagged as a self-deadlock. The walk is structural, like
// lockscope: a lock is held from x.Lock()/x.RLock() to the matching unlock
// in the same statement list (or function end when deferred); branches are
// scanned with a copy of the held set; function literals and goroutine
// bodies are not entered. Calls through interfaces or function values are
// invisible to the callee walk — the fabric's admission callbacks document
// their own locking contract instead.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisitions never hold two port locks at once, form no cycles, and stay off the rings",
	Run:  runLockOrder,
}

// lockOrderSingle is the lock class, named by the struct type that declares
// the mutex, of which a path holds at most one at a time.
const lockOrderSingle = "port"

// heldLock is one lock the walker believes is currently held.
type heldLock struct {
	expr  string // rendered receiver ("p.mu"), for exact-expression checks
	class string // "Type.field" owning class, or "" for locals
	write bool   // Lock rather than RLock
}

// lockOrderEdge records that class to was acquired while class from was
// held, with the position of one such acquisition.
type lockOrderEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(pass *Pass) error {
	info := pass.Pkg.Info
	graph := NewCallGraph(pass.Pkg)
	// acquires summarizes the lock classes each function may acquire,
	// directly or through intra-package callees.
	acquires := &Facts[map[string]bool]{Graph: graph}
	acquires.Compute = func(fn *types.Func, decl *ast.FuncDecl, facts *Facts[map[string]bool]) map[string]bool {
		out := make(map[string]bool)
		inspectCalls(decl.Body, func(call *ast.CallExpr) {
			if recv, method, ok := mutexAcquire(info, call); ok {
				if method == "Lock" || method == "RLock" {
					if class := lockClass(info, recv); class != "" {
						out[class] = true
					}
				}
				return
			}
			if callee := calleeFunc(info, call); callee != nil {
				for class := range facts.Of(callee) {
					out[class] = true
				}
			}
		})
		return out
	}
	w := &orderWalker{
		pass:     pass,
		graph:    graph,
		acquires: acquires,
		edges:    make(map[[2]string]token.Pos),
	}
	// Walk declarations in source order so diagnostics and recorded edge
	// positions are deterministic.
	decls := make([]*ast.FuncDecl, 0, len(graph.Decls))
	for _, fd := range graph.Decls {
		decls = append(decls, fd)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].Pos() < decls[j].Pos() })
	for _, fd := range decls {
		w.walkFunc(fd)
	}
	w.reportCycles()
	reportRingMutexDecls(pass)
	return nil
}

// ringNamed reports whether a type name denotes a ring buffer: "ring",
// "Ring", a "Ring" prefix or suffix, or a "ring" prefix followed by a new
// word ("ringBuf"). Substring matches inside other words ("String") do not
// count.
func ringNamed(name string) bool {
	switch {
	case name == "ring" || name == "Ring":
		return true
	case strings.HasPrefix(name, "Ring") || strings.HasSuffix(name, "Ring"):
		return true
	case strings.HasPrefix(name, "ring") && len(name) > 4 &&
		(name[4] >= 'A' && name[4] <= 'Z' || name[4] == '_'):
		return true
	}
	return false
}

// reportRingMutexDecls flags ring-named struct types that declare a mutex
// field: the lock is a contract violation at birth, before anyone acquires
// it.
func reportRingMutexDecls(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ringNamed(ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					t := info.TypeOf(field.Type)
					if isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex") {
						pass.Reportf(field.Pos(),
							"ring type %s declares a mutex; rings are SPSC and synchronize with atomics only",
							ts.Name.Name)
					}
				}
			}
		}
	}
}

// mutexAcquire decodes x.Lock()/x.Unlock()/x.RLock()/x.RUnlock() where x is
// a sync.Mutex or sync.RWMutex, returning the receiver expression.
func mutexAcquire(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	recvExpr, fn := methodCall(info, call)
	if fn == nil {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	t := info.TypeOf(recvExpr)
	if !isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex") {
		return nil, "", false
	}
	return recvExpr, fn.Name(), true
}

// lockClass names the lock's owning class as "Type.field" when the receiver
// is a mutex field selected from a named struct type ("port.mu",
// "serialAdmitter.mu"). Locals and package-level mutexes have no class and are
// only subject to the exact-expression self-deadlock check.
func lockClass(info *types.Info, recv ast.Expr) string {
	sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	owner := namedType(selection.Recv())
	if owner == nil {
		return ""
	}
	return owner.Obj().Name() + "." + sel.Sel.Name
}

type orderWalker struct {
	pass     *Pass
	graph    *CallGraph
	acquires *Facts[map[string]bool]
	edges    map[[2]string]token.Pos
}

func (w *orderWalker) walkFunc(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	w.stmts(fd.Body.List, nil)
}

// stmts walks a statement list in order, threading the held-lock stack.
// Branch bodies receive a copy, exactly like lockscope.
func (w *orderWalker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func copyLocks(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func (w *orderWalker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, held)
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held to function end — the
		// fallthrough already models that. Other deferred calls run at
		// return time and are not walked.
		return held
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			held = w.expr(arg, held)
		}
		return held
	case *ast.SendStmt:
		held = w.expr(s.Chan, held)
		return w.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.expr(e, held)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.expr(e, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = w.expr(v, held)
					}
				}
			}
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Cond, held)
		w.stmts(s.Body.List, copyLocks(held))
		if s.Else != nil {
			w.stmt(s.Else, copyLocks(held))
		}
		return held
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.expr(s.Cond, held)
		}
		w.stmts(s.Body.List, copyLocks(held))
		return held
	case *ast.RangeStmt:
		held = w.expr(s.X, held)
		w.stmts(s.Body.List, copyLocks(held))
		return held
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyLocks(held))
			}
		}
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyLocks(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyLocks(held))
			}
		}
		return held
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	}
	return held
}

// expr scans an expression for lock operations and checked calls, updating
// the held stack for top-level Lock/Unlock calls.
func (w *orderWalker) expr(e ast.Expr, held []heldLock) []heldLock {
	info := w.pass.Pkg.Info
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if recvExpr, method, ok := mutexAcquire(info, call); ok {
			recv := types.ExprString(recvExpr)
			class := lockClass(info, recvExpr)
			switch method {
			case "Lock", "RLock":
				w.checkAcquire(call.Pos(), recv, class, method == "Lock", held, "")
				return append(held, heldLock{expr: recv, class: class, write: method == "Lock"})
			case "Unlock", "RUnlock":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].expr == recv {
						return append(copyLocks(held[:i]), held[i+1:]...)
					}
				}
				return held
			}
		}
	}
	// Nested calls: check intra-package callees' acquisitions against the
	// current held set. Function literals are skipped — they run later.
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, isMutex := mutexAcquire(info, call); isMutex {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil || len(held) == 0 {
			return true
		}
		classes := make([]string, 0, 4)
		for class := range w.acquires.Of(callee) {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			w.checkAcquire(call.Pos(), "", class, false, held, callee.Name())
		}
		return true
	})
	return held
}

// checkAcquire applies the ordering rules to one acquisition of class (or,
// when via is set, a callee's acquisition observed at a call site) against
// the held set, and records graph edges.
func (w *orderWalker) checkAcquire(pos token.Pos, recv, class string, write bool, held []heldLock, via string) {
	suffix := ""
	if via != "" {
		suffix = " (via call to " + via + ")"
	}
	if class != "" && ringNamed(classType(class)) {
		w.pass.Reportf(pos,
			"acquires a lock owned by ring type %s%s; rings are SPSC and never locked",
			classType(class), suffix)
	}
	for _, h := range held {
		if via == "" && write && h.expr == recv {
			w.pass.Reportf(pos, "%s is locked while already held: self-deadlock", recv)
			continue
		}
		if class == "" || h.class == "" {
			continue
		}
		if h.class != class {
			key := [2]string{h.class, class}
			if _, ok := w.edges[key]; !ok {
				w.edges[key] = pos
			}
		}
		if at := classType(class); at == lockOrderSingle && at == classType(h.class) {
			w.pass.Reportf(pos, "acquires a second %s lock%s while one is held; the fabric never holds two %s locks at once", at, suffix, at)
		}
	}
}

// reportCycles finds acquisition-order cycles among the recorded edges and
// reports each edge that closes one: inverted orders between two classes
// (the classic two-mutex deadlock).
func (w *orderWalker) reportCycles() {
	adj := make(map[string][]string)
	for key := range w.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for from := range adj {
		sort.Strings(adj[from])
	}
	keys := make([][2]string, 0, len(w.edges))
	for key := range w.edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		// Edge from→to closes a cycle iff `from` is reachable from `to`.
		if reachable(adj, key[1], key[0]) {
			w.pass.Reportf(w.edges[key],
				"acquires %s while holding %s, but another path acquires them in the opposite order: lock-order cycle",
				key[1], key[0])
		}
	}
}

// reachable reports whether to is reachable from from in adj.
func reachable(adj map[string][]string, from, to string) bool {
	seen := map[string]bool{}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, adj[n]...)
	}
	return false
}

// classType returns the struct-type half of a "Type.field" lock class.
func classType(class string) string {
	if i := strings.IndexByte(class, '.'); i >= 0 {
		return class[:i]
	}
	return class
}
