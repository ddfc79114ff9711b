// Package lockorder enforces the server's lock discipline inside packages
// whose import path ends in internal/server or internal/netserver:
//
//   - No Decode call while a sync.Mutex (shard lock) or an exclusively
//     held sync.RWMutex is held: decoding is per-request work that must
//     not serialize a shard or the round barrier. Decoding under the
//     shared stream lock is allowed.
//   - No channel send or receive while any lock is held, unless the send
//     is occupancy-guarded in the same block (`if len(ch) == cap(ch)
//     { continue }` before it) or marked //loloha:locksafe. close() never
//     blocks and is always allowed.
//   - No call through a function-typed value (user callback) and no
//     Subscribe call while any lock is held.
//   - Lock ranking: the stream RWMutex is the outer lock, shard Mutexes
//     are inner. Acquiring an RWMutex while holding a Mutex, or a second
//     Mutex while one is held, is an inversion. Re-acquiring a held lock
//     is a self-deadlock.
//
// ColumnarTallier.TallyCell deliberately runs under the shard lock
// (tallies are integer adds); its allocation behaviour is noalloc's job,
// so it is not banned here.
//
// The analysis is intra-function and syntactic about lock identity (the
// rendered receiver expression, e.g. "sh.mu"). Functions whose name ends
// in "Locked" are analyzed as holding the stream lock exclusively.
package lockorder

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"github.com/loloha-ldp/loloha/lint/analysis"
	"github.com/loloha-ldp/loloha/lint/annot"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "internal/server must not decode, send, or call back while holding locks out of rank",
	Run:  run,
}

// scopes are the import-path suffixes the discipline applies to: the
// collection engine and the network daemon fronting it (whose SSE hub
// must follow the same occupancy-guarded-send rule as the round
// publisher).
var scopes = []string{"internal/server", "internal/netserver"}

type lockKind int

const (
	mutexHeld lockKind = iota // sync.Mutex, the inner (shard) rank
	rwShared                  // sync.RWMutex held via RLock
	rwExcl                    // sync.RWMutex held via Lock
)

// lockedByConvention is the synthetic key seeded for *Locked functions.
const lockedByConvention = "s.mu"

type lockSet map[string]lockKind

func (ls lockSet) clone() lockSet {
	c := make(lockSet, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

func (ls lockSet) anyMutex() (string, bool) {
	for k, v := range ls {
		if v == mutexHeld {
			return k, true
		}
	}
	return "", false
}

func (ls lockSet) anyExclusive() (string, bool) {
	for k, v := range ls {
		if v == mutexHeld || v == rwExcl {
			return k, true
		}
	}
	return "", false
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	inScope := false
	for _, scope := range scopes {
		if path == scope || strings.HasSuffix(path, "/"+scope) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	ix := annot.NewIndex(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			held := lockSet{}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				held[lockedByConvention] = rwExcl
			}
			c := &checker{pass: pass, ix: ix}
			c.blockStmts(fd.Body.List, held)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	ix   *annot.Index
}

// blockStmts walks one statement list, threading lock acquisitions
// sequentially and remembering which channels an earlier sibling
// occupancy-guarded.
func (c *checker) blockStmts(list []ast.Stmt, held lockSet) {
	guarded := map[string]bool{}
	for _, s := range list {
		if ch, ok := occupancyGuard(s); ok {
			guarded[ch] = true
		}
		c.stmt(s, held, guarded)
	}
}

// occupancyGuard recognizes `if len(ch) == cap(ch) { continue/break/return }`
// and returns the rendered channel expression.
func occupancyGuard(s ast.Stmt) (string, bool) {
	ifs, ok := s.(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil || !terminates(ifs.Body) {
		return "", false
	}
	bin, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return "", false
	}
	lc, lok := builtinArg(bin.X, "len", "cap")
	rc, rok := builtinArg(bin.Y, "len", "cap")
	if !lok || !rok || lc != rc {
		return "", false
	}
	return lc, true
}

// builtinArg matches a call to one of the named builtins and returns its
// rendered argument.
func builtinArg(e ast.Expr, names ...string) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	for _, n := range names {
		if id.Name == n {
			return render(call.Args[0]), true
		}
	}
	return "", false
}

func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

func (c *checker) stmt(s ast.Stmt, held lockSet, guarded map[string]bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		c.blockStmts(s.List, held)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, meth, rw, isOp := c.lockOp(call); isOp {
				c.applyLockOp(call.Pos(), held, key, meth, rw)
				return
			}
		}
		c.exprs(held, s.X)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end (so no
		// change to held); other deferred work runs outside this walk.
		return
	case *ast.IfStmt:
		c.stmt(s.Init, held, guarded)
		c.exprs(held, s.Cond)
		c.blockStmts(s.Body.List, held.clone())
		if s.Else != nil {
			c.stmt(s.Else, held.clone(), guarded)
		}
	case *ast.ForStmt:
		c.stmt(s.Init, held, guarded)
		c.exprs(held, s.Cond)
		inner := held.clone()
		c.blockStmts(s.Body.List, inner)
		c.stmt(s.Post, inner, guarded)
	case *ast.RangeStmt:
		c.exprs(held, s.X)
		c.blockStmts(s.Body.List, held.clone())
	case *ast.SendStmt:
		c.checkSend(s, held, guarded)
		c.exprs(held, s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.exprs(held, r)
		}
	case *ast.AssignStmt:
		c.exprs(held, s.Rhs...)
		c.exprs(held, s.Lhs...)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.exprs(held, vs.Values...)
				}
			}
		}
	case *ast.SwitchStmt:
		c.stmt(s.Init, held, guarded)
		c.exprs(held, s.Tag)
		for _, cc := range s.Body.List {
			c.blockStmts(cc.(*ast.CaseClause).Body, held.clone())
		}
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init, held, guarded)
		for _, cc := range s.Body.List {
			c.blockStmts(cc.(*ast.CaseClause).Body, held.clone())
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			c.stmt(clause.Comm, held.clone(), guarded)
			c.blockStmts(clause.Body, held.clone())
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, held, guarded)
	case *ast.IncDecStmt:
		c.exprs(held, s.X)
	case *ast.GoStmt:
		// The goroutine body runs without the caller's locks.
		return
	}
}

func (c *checker) checkSend(s *ast.SendStmt, held lockSet, guarded map[string]bool) {
	if len(held) == 0 {
		return
	}
	if guarded[render(s.Chan)] || c.ix.At(s, "locksafe") {
		return
	}
	c.pass.Reportf(s.Pos(), "channel send on %s while holding %s may block the lock; guard with `if len(ch) == cap(ch)` or mark //loloha:locksafe", render(s.Chan), holdList(held))
}

// applyLockOp mutates held for a Lock/Unlock/RLock/RUnlock call and reports
// rank inversions and re-acquisitions.
func (c *checker) applyLockOp(pos token.Pos, held lockSet, key, meth string, rw bool) {
	switch meth {
	case "Lock", "RLock":
		if _, ok := held[key]; ok {
			c.pass.Reportf(pos, "%s is already held; re-acquiring self-deadlocks", key)
			return
		}
		kind := mutexHeld
		if rw {
			kind = rwExcl
			if meth == "RLock" {
				kind = rwShared
			}
		}
		if inner, ok := held.anyMutex(); ok {
			// Mutexes are the inner (shard) rank: nothing is acquired
			// after one.
			c.pass.Reportf(pos, "acquiring %s while holding %s inverts the stream-before-shard lock order", key, inner)
		}
		held[key] = kind
	case "Unlock", "RUnlock":
		delete(held, key)
	}
}

// lockOp matches a call to (*sync.Mutex)/(*sync.RWMutex) Lock/Unlock/
// RLock/RUnlock and returns the lock's identity.
func (c *checker) lockOp(call *ast.CallExpr) (key, meth string, rw, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false, false
	}
	t := c.pass.TypesInfo.TypeOf(sel.X)
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return "", "", false, false
	}
	switch n.Obj().Name() {
	case "Mutex":
		return render(sel.X), sel.Sel.Name, false, true
	case "RWMutex":
		return render(sel.X), sel.Sel.Name, true, true
	}
	return "", "", false, false
}

// exprs inspects expressions for banned calls and receives under held locks.
func (c *checker) exprs(held lockSet, list ...ast.Expr) {
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // runs later, without these locks
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && len(held) > 0 && !c.ix.At(n, "locksafe") {
					c.pass.Reportf(n.Pos(), "channel receive while holding %s may block the lock", holdList(held))
				}
			case *ast.CallExpr:
				c.checkCall(n, held)
			}
			return true
		})
	}
}

func (c *checker) checkCall(call *ast.CallExpr, held lockSet) {
	if len(held) == 0 {
		return
	}
	tv := c.pass.TypesInfo.Types[call.Fun]
	if tv.IsBuiltin() || tv.IsType() {
		return // close(), len(), conversions: never block
	}
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.Uses[f.Sel]
	}
	fn, isFunc := obj.(*types.Func)
	if !isFunc {
		if _, isSig := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); isSig && !c.ix.At(call, "locksafe") {
			c.pass.Reportf(call.Pos(), "call through a function value (user callback) while holding %s", holdList(held))
		}
		return
	}
	switch fn.Name() {
	case "Decode":
		if c.ix.At(call, "locksafe") {
			return
		}
		if lk, bad := held.anyExclusive(); bad {
			c.pass.Reportf(call.Pos(), "Decoder.Decode while holding %s exclusively; decode before taking the lock or mark //loloha:locksafe", lk)
		}
	case "Subscribe":
		if !c.ix.At(call, "locksafe") {
			c.pass.Reportf(call.Pos(), "Subscribe while holding %s can deliver under the lock", holdList(held))
		}
	}
}

func holdList(held lockSet) string {
	var keys []string
	for k := range held {
		keys = append(keys, k)
	}
	// Deterministic message for tests: small sets, insertion order varies.
	if len(keys) > 1 {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
	}
	return strings.Join(keys, ", ")
}

func render(e ast.Expr) string {
	var b bytes.Buffer
	printer.Fprint(&b, token.NewFileSet(), e)
	return b.String()
}
