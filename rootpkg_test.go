package rcbr

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// nonTestFiles parses the non-test Go files of dir.
func nonTestFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files parsed", dir)
	}
	return files
}

// pkgSel returns Name when n is the selector expression pkg.Name, else "".
func pkgSel(n ast.Node, pkg string) string {
	if sel, ok := n.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
			return sel.Sel.Name
		}
	}
	return ""
}

// goFiles parses every Go file of the repository — internal/, cmd/,
// examples/, the root package and the bench/ module — skipping testdata and
// dot-directories. Test files are included only when tests is set.
func goFiles(t *testing.T, fset *token.FileSet, tests bool) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && (name == "testdata" || len(name) > 1 && name[0] == '.') {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// lastName is the name an expression ends in: x for x, Sel for X.Sel.
func lastName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// TestRootPackageExportsNothing keeps the root package a package comment and
// nothing else: the code is imported from internal/ by its own names, and a
// re-export layer here would have no caller.
func TestRootPackageExportsNothing(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range nonTestFiles(t, fset, ".") {
		if ast.FileExports(f) {
			t.Errorf("%s declares exported identifiers; the root package exports nothing", fset.Position(f.Pos()).Filename)
		}
	}
}

// TestControlPathReadsOneClock keeps the wall clock off the control path:
// switchfab, mesh and netproto take their time from metrics.Nanotime — read
// once per operation and handed down — so a time.Now or time.Since call in
// their non-test files is a second clock creeping back in. (Wall stamps for
// people, Event.Time and Snapshot.TakenAt, are made in internal/metrics.)
//
// A switch reads the clock it is handed (WithClock), so internal/switchfab
// names metrics.Nanotime once, as New's default: a read anywhere else — an
// admitter reading the wall while the switch runs on virtual time — is a
// second clock.
//
// The data plane is held to a stricter rule: internal/datapath reads no
// clock at all — no time.Now or time.Since call, not even metrics.Nanotime.
// A sweep's only time is the nowNanos its caller hands Forward, which is the
// property a virtual clock needs from the cell path: whoever owns the clock
// owns every shaper's.
//
// internal/mesh reads no metrics.Nanotime either: a path's only clock is the
// wall wait that models link propagation. The transport call a hop makes is
// timed where it runs, by the switch or the signaling client.
func TestControlPathReadsOneClock(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range nonTestFiles(t, fset, "internal/switchfab") {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "New" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if pkgSel(n, "metrics") == "Nanotime" {
					t.Errorf("%s: metrics.Nanotime outside New; a switch reads the clock it is handed", fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
	for _, dir := range []string{"internal/switchfab", "internal/mesh", "internal/netproto", "internal/datapath"} {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name := pkgSel(call.Fun, "time"); name == "Now" || name == "Since" {
						t.Errorf("%s: time.%s call; the control path reads metrics.Nanotime, the data plane no clock",
							fset.Position(call.Pos()), name)
					}
				}
				if (dir == "internal/datapath" || dir == "internal/mesh") && pkgSel(n, "metrics") == "Nanotime" {
					t.Errorf("%s: metrics.Nanotime; the data plane takes its time from Forward's caller, and a mesh path times no hop",
						fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
}

// TestLockRulesInSource holds the lock rules of DESIGN §11 that can be read
// off the source (once a lint analyzer's job, DESIGN §9). Rings are
// single-producer/single-consumer and synchronize with atomics alone, so no
// ring-named struct in internal/datapath declares or embeds a mutex. A switch
// operation works under exactly one port mutex — which is what makes the
// fabric deadlock-free with no order among ports — so no function in
// internal/switchfab calls Lock twice: whatever else is locked under a port
// (the VC table's writer mutex) is locked by a callee that locks nothing
// further. The port's mutex is the only per-port lock: it guards the port's
// admission controller too, so no switchfab type but port and Switch
// declares a mutex — the MemoryAdmitter finds a port through its switch's
// lock-free port table. And an operation reaches an established VC one
// way, lockVC's "look it up, lock its port, check gone": lockVC is the only
// function that looks a VC up in the table and then locks a port's mutex.
// (SetupID locks its port first and reads the table only to find the id
// free.)
func TestLockRulesInSource(t *testing.T) {
	fset := token.NewFileSet()
	isMutex := func(e ast.Expr) bool {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		name := pkgSel(e, "sync")
		return name == "Mutex" || name == "RWMutex"
	}
	// The switch's mutexes: a port's guards its books and its admission
	// controller, the Switch's serializes AddPort.
	lockHolders := map[string]bool{"port": true, "Switch": true}
	for _, f := range nonTestFiles(t, fset, "internal/datapath") {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !(strings.Contains(ts.Name.Name, "Ring") || strings.HasPrefix(ts.Name.Name, "ring")) {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if isMutex(field.Type) {
						t.Errorf("%s: ring type %s holds a mutex; rings synchronize with atomics only",
							fset.Position(field.Pos()), ts.Name.Name)
					}
				}
			}
			return true
		})
	}
	var reachers []string // functions that look a VC up and then lock a port
	for _, f := range nonTestFiles(t, fset, "internal/switchfab") {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok && !lockHolders[ts.Name.Name] {
				for _, field := range st.Fields.List {
					if isMutex(field.Type) {
						t.Errorf("%s: %s holds a mutex; in switchfab only port and Switch do",
							fset.Position(field.Pos()), ts.Name.Name)
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			locks, lookedUp := 0, false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
						locks++
					}
					switch fun := types.ExprString(call.Fun); {
					case strings.HasSuffix(fun, ".vcs.Get"):
						lookedUp = true
					case strings.HasSuffix(fun, ".mu.Lock") && lookedUp:
						reachers = append(reachers, fd.Name.Name)
						lookedUp = false
					}
				}
				return true
			})
			if locks > 1 {
				t.Errorf("%s: %s calls Lock %d times; a switchfab function locks one mutex",
					fset.Position(fd.Pos()), fd.Name.Name, locks)
			}
		}
	}
	if !slices.Equal(reachers, []string{"lockVC"}) {
		t.Errorf("functions that look a VC up and then lock its port: %v; want lockVC alone, which every operation on a VC calls", reachers)
	}
}

// TestSweepCountersArePlain holds the forwarding sweep to no locked
// instruction per cell on a VC's entry. On amd64 an atomic add or store is
// one, and a per-cell one cost the sweep a fifth of its time; the sweep's
// counters are plain words under the forwarder's sweep lock instead, which
// a sweep takes once. So vcEntry declares no sync/atomic type (its rate
// word is switchfab's, loaded only), and inside forwardPort no call whose
// name begins Add, Store, Swap or CompareAndSwap — method or sync/atomic
// function — has an operand rooted at a *vcEntry. The package is
// type-checked from source to know which operands are.
func TestSweepCountersArePlain(t *testing.T) {
	const dir = "internal/datapath"
	fset := token.NewFileSet()
	files := nonTestFiles(t, fset, dir)
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("rcbr/"+dir, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	obj := pkg.Scope().Lookup("vcEntry")
	if obj == nil {
		t.Fatalf("%s declares no vcEntry", dir)
	}
	st := obj.Type().Underlying().(*types.Struct)
	for i := range st.NumFields() {
		if named, ok := st.Field(i).Type().(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic" {
			t.Errorf("%s: vcEntry.%s is a %s; the sweep's counters are plain words under its lock",
				fset.Position(st.Field(i).Pos()), st.Field(i).Name(), named)
		}
	}
	entryPtr := types.NewPointer(obj.Type())
	// rooted reports whether e, followed down its selectors, indexes,
	// derefs and address-ofs, reaches a *vcEntry.
	rooted := func(e ast.Expr) bool {
		for e != nil {
			if tv, ok := info.Types[e]; ok && types.Identical(tv.Type, entryPtr) {
				return true
			}
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.UnaryExpr:
				e = x.X
			default:
				e = nil
			}
		}
		return false
	}
	locked := regexp.MustCompile(`^(Add|Store|Swap|CompareAndSwap)`)
	var sweep *ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "forwardPort" {
				sweep = fd
			}
		}
	}
	if sweep == nil {
		t.Fatalf("%s: no forwardPort", dir)
	}
	ast.Inspect(sweep.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !locked.MatchString(lastName(call.Fun)) {
			return true
		}
		operands := call.Args
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			operands = append([]ast.Expr{sel.X}, operands...)
		}
		for _, op := range operands {
			if rooted(op) {
				t.Errorf("%s: forwardPort calls %s on a VC's entry: a locked instruction per cell; count in a plain word under the sweep lock",
					fset.Position(call.Pos()), types.ExprString(call.Fun))
			}
		}
		return true
	})
}

// TestRingFastPathInlined holds the cell path's per-cell work to no call. A
// ring's storage grows, so Stage has a slow path that refreshes the tail and
// grows the backing; a call to it costs more than Go's inlining budget, so
// the stage is split, and the call-free half, stageFast, is what the two
// per-cell callers must inline: the forwarder's egress stage in forwardPort
// and Push. The forwarder's lookup stage must likewise inline cell.VCID, the
// header reader that returns a cell's id and HEC verdict without building a
// Header; out of line, its returned pair is reloaded on every cell. Reading
// the compiler's own report (go build -gcflags=-m) is the only way to see a
// budget that a harmless-looking line can push over.
func TestRingFastPathInlined(t *testing.T) {
	const dir = "internal/datapath"
	fset := token.NewFileSet()
	type span struct {
		file     string
		from, to int
	}
	// Each function, and the calls the compiler must inline into it.
	want := map[string][]string{
		"(*Forwarder).forwardPort": {`(*Ring).stageFast`, `cell.VCID`},
		"(*Ring).Push":             {`(*Ring).stageFast`},
	}
	spans := map[string]*span{}
	for _, f := range nonTestFiles(t, fset, dir) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			name := "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
			if _, ok := want[name]; ok {
				from, to := fset.Position(fd.Pos()), fset.Position(fd.End())
				spans[name] = &span{filepath.ToSlash(from.Filename), from.Line, to.Line}
			}
		}
	}
	out, err := exec.Command("go", "build", "-gcflags=-m", "./"+dir).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./%s: %v\n%s", dir, err, out)
	}
	for name, callees := range want {
		sp := spans[name]
		if sp == nil {
			t.Errorf("%s: no function %s", dir, name)
			continue
		}
		for _, callee := range callees {
			inlined := regexp.MustCompile(`(?m)^(\S+\.go):(\d+):\d+: inlining call to ` + regexp.QuoteMeta(callee) + `$`)
			found := false
			for _, m := range inlined.FindAllStringSubmatch(string(out), -1) {
				line, _ := strconv.Atoi(m[2])
				found = found || filepath.ToSlash(m[1]) == sp.file && sp.from <= line && line <= sp.to
			}
			if !found {
				t.Errorf("%s:%d: %s does not inline %s; the compiler reports:\n%s", sp.file, sp.from, name, callee, out)
			}
		}
	}
}

// TestOneEventHeap holds the simulators to one event queue: sim.Queue, a
// typed value heap. A container/heap import in a non-test file is a second
// heap, and one that boxes every event it holds into an interface.
func TestOneEventHeap(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range goFiles(t, fset, false) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"container/heap"` {
				t.Errorf("%s: imports container/heap; schedule events on a sim.Queue", fset.Position(imp.Pos()))
			}
		}
	}
}

// TestMetricNamesAreOwnedConstants holds the metric-naming contract the
// README's metric tables rely on (once the metricname analyzer's; DESIGN §9).
// Every Metric* constant is a string literal in the dotted lower-case
// namespace, declared once repo-wide so no two copies drift apart. Every name
// handed to a registry's Counter, CounterFunc, Gauge, Histogram or
// HistogramFunc is a Metric* constant or a *Counter/*Gauge/*Histogram
// builder's result, never a literal, which records to a dead name when
// mistyped.
func TestMetricNamesAreOwnedConstants(t *testing.T) {
	nameRE := regexp.MustCompile(`^[a-z]+(\.[a-z_]+)+$`)
	builderRE := regexp.MustCompile(`(Counter|Gauge|Histogram)$`)
	registryRE := regexp.MustCompile(`^(Counter|CounterFunc|Gauge|Histogram|HistogramFunc)$`)
	fset := token.NewFileSet()
	declared := map[string][]token.Pos{}
	for _, f := range goFiles(t, fset, false) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					for i := 0; ok && n.Tok == token.CONST && i < len(vs.Names); i++ {
						if name := vs.Names[i]; strings.HasPrefix(name.Name, "Metric") {
							var value string // "" unless a string literal
							if i < len(vs.Values) {
								value, _ = strconv.Unquote(types.ExprString(vs.Values[i]))
							}
							if !nameRE.MatchString(value) {
								t.Errorf("%s: %s is not a string literal matching %s", fset.Position(name.Pos()), name.Name, nameRE)
							}
							declared[value] = append(declared[value], name.Pos())
						}
					}
				}
			case *ast.CallExpr:
				if !registryRE.MatchString(lastName(n.Fun)) || len(n.Args) == 0 {
					return true
				}
				arg, ok := ast.Unparen(n.Args[0]).(*ast.CallExpr)
				if ok && !builderRE.MatchString(lastName(arg.Fun)) || !ok && !strings.HasPrefix(lastName(n.Args[0]), "Metric") {
					t.Errorf("%s: the name passed to %s is neither a Metric* constant nor a *Counter/*Gauge/*Histogram builder",
						fset.Position(n.Args[0].Pos()), lastName(n.Fun))
				}
			}
			return true
		})
	}
	for value, at := range declared {
		if len(at) > 1 {
			t.Errorf("metric name %q is declared %d times (%s, %s); keep one owning constant",
				value, len(at), fset.Position(at[0]), fset.Position(at[1]))
		}
	}
}

// TestSentinelErrorsMatchedWithErrorsIs holds the error-matching rule the
// signaling plane depends on (once the sentinelcmp analyzer's; DESIGN §9): a
// sentinel crosses the UDP wire as a code and comes back wrapped, so == on
// it, a switch case on it, or a comparison of Error() text stops matching
// the moment an error gains a layer. Test files are held too: an assertion
// made with == guards nothing once the error is wrapped. Names are matched,
// not types; ErrCode* are wire codes, not errors.
func TestSentinelErrorsMatchedWithErrorsIs(t *testing.T) {
	sentinelRE := regexp.MustCompile(`^Err[A-Z]`)
	sentinel := func(e ast.Expr) bool {
		name := lastName(e)
		return sentinelRE.MatchString(name) && !strings.HasPrefix(name, "ErrCode")
	}
	errorText := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		return ok && len(call.Args) == 0 && lastName(call.Fun) == "Error"
	}
	fset := token.NewFileSet()
	for _, f := range goFiles(t, fset, true) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				isNil := lastName(n.X) == "nil" || lastName(n.Y) == "nil"
				if !isNil && (sentinel(n.X) || sentinel(n.Y)) {
					t.Errorf("%s: sentinel compared with %s; use errors.Is", fset.Position(n.Pos()), n.Op)
				} else if errorText(n.X) || errorText(n.Y) {
					t.Errorf("%s: error matched by its Error() text; use errors.Is", fset.Position(n.Pos()))
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if sentinel(e) {
						t.Errorf("%s: switch case on sentinel %s; use errors.Is", fset.Position(e.Pos()), lastName(e))
					}
				}
			}
			return true
		})
	}
}

// TestNoLockHeldAcrossBlockingCall holds that no mutex is held across a call
// that can block indefinitely, making one slow peer head-of-line blocking for
// every VC sharing the lock (once the lockscope analyzer's; DESIGN §9). A lock
// is held from x.Lock() or x.RLock() to the unlock in the same statement list,
// or to the end of the function when deferred; a branch is walked with a copy
// of what is held, a deferred call or function literal not at all. Names are
// matched: any x.Lock() is a mutex, Wait and net's read/write/dial/accept
// methods count on any receiver, and a range is over a channel when its
// operand's name is declared chan-typed in the package.
func TestNoLockHeldAcrossBlockingCall(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for _, f := range goFiles(t, fset, false) {
		dir := filepath.Dir(fset.Position(f.Pos()).Filename)
		pkgs[dir] = append(pkgs[dir], f)
	}
	isChan := func(e ast.Expr) bool { // chan T, or make(chan T, ...)
		if call, ok := e.(*ast.CallExpr); ok && lastName(call.Fun) == "make" {
			e = call.Args[0]
		}
		_, ok := e.(*ast.ChanType)
		return ok
	}
	for _, files := range pkgs {
		w := &lockWalk{t: t, fset: fset, chans: map[string]bool{}}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					for _, id := range n.Names {
						w.chans[id.Name] = w.chans[id.Name] || isChan(n.Type)
					}
				case *ast.ValueSpec:
					for i, id := range n.Names {
						w.chans[id.Name] = w.chans[id.Name] || isChan(n.Type) || i < len(n.Values) && isChan(n.Values[i])
					}
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						w.chans[lastName(n.Lhs[i])] = w.chans[lastName(n.Lhs[i])] || isChan(rhs)
					}
				}
				return true
			})
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					w.stmts(fd.Body.List, map[string]bool{})
				}
			}
		}
	}
}

// blockingMethodRE matches the methods no lock is held across, on any
// receiver: WaitGroup.Wait and the blocking methods of net's conns and
// listeners.
var blockingMethodRE = regexp.MustCompile(`^(Wait|Read|Write|ReadFrom|WriteTo|ReadFromUDP|WriteToUDP|ReadMsgUDP|WriteMsgUDP|Accept|AcceptTCP|AcceptUnix|Dial|DialContext)$`)

// lockWalk walks one package's function bodies; held maps each locked
// receiver, rendered as source ("p.mu"), to true.
type lockWalk struct {
	t     *testing.T
	fset  *token.FileSet
	chans map[string]bool // names the package declares chan-typed
}

func (w *lockWalk) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalk) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case nil, *ast.DeferStmt: // defer x.Unlock() holds x to the end, as the walk does
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && len(call.Args) == 0 {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch recv := types.ExprString(sel.X); sel.Sel.Name {
				case "Lock", "RLock":
					held[recv] = true
					return
				case "Unlock", "RUnlock":
					delete(held, recv)
					return
				}
			}
		}
		w.scan(s, held)
	case *ast.GoStmt: // the goroutine blocks its own stack; its arguments are evaluated here
		for _, arg := range s.Call.Args {
			w.scan(arg, held)
		}
	case *ast.SendStmt:
		w.blocking(s.Pos(), held, "a channel send")
		w.scan(s.Value, held)
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.scan(s.Cond, held)
		w.stmts(s.Body.List, maps.Clone(held))
		w.stmt(s.Else, maps.Clone(held))
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		w.scan(s.Cond, held)
		w.stmts(s.Body.List, maps.Clone(held))
	case *ast.RangeStmt:
		if w.chans[lastName(s.X)] {
			w.blocking(s.X.Pos(), held, "a range over a channel")
		}
		w.scan(s.X, held)
		w.stmts(s.Body.List, maps.Clone(held))
	case *ast.SelectStmt:
		if !slices.ContainsFunc(s.Body.List, func(c ast.Stmt) bool { return c.(*ast.CommClause).Comm == nil }) {
			w.blocking(s.Pos(), held, "a select with no default case")
		}
		w.stmts(s.Body.List, held)
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		w.scan(s.Tag, held)
		w.stmts(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		w.stmts(s.Body.List, held)
	case *ast.CaseClause:
		w.stmts(s.Body, maps.Clone(held))
	case *ast.CommClause: // the comm op ran as the select
		w.stmts(s.Body, maps.Clone(held))
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	default: // assignments, returns, declarations
		w.scan(s, held)
	}
}

// scan reports the blocking operations in n while any lock is held.
func (w *lockWalk) scan(n ast.Node, held map[string]bool) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocking(n.Pos(), held, "a channel receive")
			}
		case *ast.CallExpr:
			if name := lastName(n.Fun); pkgSel(n.Fun, "time") == "Sleep" || blockingMethodRE.MatchString(name) {
				w.blocking(n.Pos(), held, "a "+name+" call")
			}
		}
		return true
	})
}

func (w *lockWalk) blocking(pos token.Pos, held map[string]bool, what string) {
	for lock := range held {
		w.t.Errorf("%s: %s is held across %s; release the lock first", w.fset.Position(pos), lock, what)
	}
}

// TestEveryEventKindIsEmitted holds the rule PR 2's EventResync bug taught —
// the kind was declared, had a wire name, and nothing recorded it: every
// Event* constant of internal/metrics/eventlog.go is named as metrics.<Kind>
// by a non-test file under internal/ or cmd/ (a lint analyzer's job until
// PR 24, DESIGN §9; metrics.TestEveryEventKindHasAWireName holds the names).
func TestEveryEventKindIsEmitted(t *testing.T) {
	fset := token.NewFileSet()
	src, err := parser.ParseFile(fset, "internal/metrics/eventlog.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	ast.Inspect(src, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok && strings.HasPrefix(vs.Names[0].Name, "Event") {
			kinds = append(kinds, vs.Names[0].Name)
		}
		return true
	})
	if len(kinds) == 0 {
		t.Fatal("no Event* constants found in eventlog.go")
	}
	named := map[string]bool{} // every X some non-test file writes as metrics.X
	internal, _ := filepath.Glob("internal/*")
	cmds, _ := filepath.Glob("cmd/*")
	for _, dir := range append(internal, cmds...) {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				named[pkgSel(n, "metrics")] = true
				return true
			})
		}
	}
	for _, kind := range kinds {
		if !named[kind] {
			t.Errorf("metrics.%s is declared and named but no non-test file emits it", kind)
		}
	}
}

// TestSignalingPassesTheCallersContext holds context plumbing through the
// signaling surface, netproto and mesh: an exported function that takes a
// context.Context takes it first, and neither package mints
// context.Background or context.TODO — which an entry point reaching a
// context-aware callee with no context of its own would have to.
// mesh.detached's context.WithoutCancel(ctx) derives from the caller's and
// is the sanctioned way to outlive it.
func TestSignalingPassesTheCallersContext(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/netproto", "internal/mesh"} {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					for i, param := range fd.Type.Params.List {
						if pkgSel(param.Type, "context") == "Context" && (i > 0 || len(param.Names) > 1) {
							t.Errorf("%s: %s takes a context.Context, but not as its first parameter",
								fset.Position(fd.Pos()), fd.Name.Name)
						}
					}
				}
				if name := pkgSel(n, "context"); name == "Background" || name == "TODO" {
					t.Errorf("%s: context.%s minted on the signaling surface; pass the caller's context down",
						fset.Position(n.Pos()), name)
				}
				return true
			})
		}
	}
}

// TestEveryOptionHasACaller holds the rule for knobs: every
// exported With* function under internal/ is named in a non-test file of
// this module or of bench/. An option only tests set is a configuration no
// program runs; it is deleted, or its caller is named here. Names are matched
// as pkg.WithX: no non-test file imports an internal package under an alias.
func TestEveryOptionHasACaller(t *testing.T) {
	allowed := map[string]string{
		"mesh.WithEvents": "its caller is rcbrd's hop-by-hop /trace, which reads the mesh's event ring",
	}
	fset := token.NewFileSet()
	declared, used := map[string]token.Pos{}, map[string]bool{}
	for _, f := range goFiles(t, fset, false) {
		inInternal := strings.HasPrefix(fset.Position(f.Pos()).Filename, "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil && strings.HasPrefix(n.Name.Name, "With") && inInternal {
					declared[f.Name.Name+"."+n.Name.Name] = n.Pos()
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					used[x.Name+"."+n.Sel.Name] = true
				}
			case *ast.CallExpr: // from inside the option's own package
				if id, ok := n.Fun.(*ast.Ident); ok {
					used[f.Name.Name+"."+id.Name] = true
				}
			}
			return true
		})
	}
	for name, pos := range declared {
		if why := allowed[name]; !used[name] && why == "" {
			t.Errorf("%s: %s has no caller outside tests; delete it or name the caller", fset.Position(pos), name)
		} else if used[name] && why != "" {
			t.Errorf("%s has a caller now; take it off the allow-list (%s)", name, why)
		}
	}
}
