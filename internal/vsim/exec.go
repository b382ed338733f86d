package vsim

import (
	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// The watcher/wait-group/re-arm protocol lives in internal/sim
// (WatchList, WaitGroup, WaitReg), shared with vhdlsim; this front-end
// contributes only the Verilog specifics — the IEEE 1364 edge table as
// Trigger/Arm hooks, and @* expansion.

// edgeMatch implements the IEEE 1364 edge table.
func edgeMatch(old, nv hdl.Logic, edge verilog.EdgeKind) bool {
	if old == nv {
		return false
	}
	switch edge {
	case verilog.EdgePos:
		// 0->1, 0->x/z, x/z->1
		return (old == hdl.L0) || (nv == hdl.L1)
	case verilog.EdgeNeg:
		return (old == hdl.L1) || (nv == hdl.L0)
	}
	return false
}

// setSignal writes v (resized to the signal width) and notifies watchers.
func (s *Simulator) setSignal(sig *Signal, v hdl.Vector) {
	v = v.Resize(sig.Width)
	if sig.Val.Equal(v) {
		return
	}
	sig.Val = v
	s.vcdChange(sig)
	sig.watch.Notify()
}

// setMemWord writes one memory word and notifies watchers.
func (s *Simulator) setMemWord(sig *Signal, idx int, v hdl.Vector) {
	if idx < sig.MemLo || idx > sig.MemHi {
		return // out-of-range memory write is discarded
	}
	sig.Mem[idx] = v.Resize(sig.Width)
	sig.watch.Notify()
}

// ------------------------------------------------------------- targets

// target is a resolved primitive assignment destination.
type target struct {
	sig    *Signal
	lo     int // bit offset for vector writes
	width  int
	memIdx int
	isMem  bool
	ok     bool // false: discard the write (out-of-range select)
}

// resolveTargets flattens an lvalue into primitive targets, MSB-first
// for concatenations, and returns the total width. The returned slice
// is freshly allocated and safe to retain (static-LHS bindings cache it
// for the lifetime of the run).
func (s *Simulator) resolveTargets(inst *Instance, lhs verilog.Expr) ([]target, int) {
	return s.appendTargets(nil, inst, lhs)
}

// resolveTargetsScratch is resolveTargets into the simulator's reusable
// target buffer, for assignments that are applied before the next
// resolve (blocking assigns, continuous-assign updates). Hot loops
// re-execute the same assignments every cycle, so this removes a
// per-assignment allocation. The result must NOT be retained across
// events.
func (s *Simulator) resolveTargetsScratch(inst *Instance, lhs verilog.Expr) ([]target, int) {
	ts, total := s.appendTargets(s.targetScratch[:0], inst, lhs)
	s.targetScratch = ts[:0]
	return ts, total
}

func (s *Simulator) appendTargets(buf []target, inst *Instance, lhs verilog.Expr) ([]target, int) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig, _, kind := inst.lookup(x.Name)
		if kind != 1 {
			panic(sim.Faultf("assignment to non-signal %q", x.Name))
		}
		if sig.IsMem {
			panic(sim.Faultf("assignment to memory %q without an index", x.Name))
		}
		return append(buf, target{sig: sig, lo: 0, width: sig.Width, ok: true}), sig.Width
	case *verilog.Index:
		base, okb := x.Base.(*verilog.Ident)
		if !okb {
			panic(sim.Faultf("unsupported assignment target at %v", x.Pos))
		}
		sig, _, kind := inst.lookup(base.Name)
		if kind != 1 {
			panic(sim.Faultf("assignment to non-signal %q", base.Name))
		}
		i64, known := s.evalIndexValue(inst, x.Idx)
		if sig.IsMem {
			if !known {
				return append(buf, target{ok: false, width: sig.Width}), sig.Width
			}
			return append(buf, target{sig: sig, isMem: true, memIdx: int(i64), width: sig.Width, ok: true}), sig.Width
		}
		if !known {
			return append(buf, target{ok: false, width: 1}), 1
		}
		bit, inRange := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(i64))
		if !inRange {
			return append(buf, target{ok: false, width: 1}), 1
		}
		return append(buf, target{sig: sig, lo: bit, width: 1, ok: true}), 1
	case *verilog.PartSelect:
		base, okb := x.Base.(*verilog.Ident)
		if !okb {
			panic(sim.Faultf("unsupported assignment target at %v", x.Pos))
		}
		sig, _, kind := inst.lookup(base.Name)
		if kind != 1 || sig.IsMem {
			panic(sim.Faultf("bad part-select assignment target %q", base.Name))
		}
		m64, ok1 := s.evalIndexValue(inst, x.MSB)
		l64, ok2 := s.evalIndexValue(inst, x.LSB)
		if !ok1 || !ok2 {
			return append(buf, target{ok: false, width: 1}), 1
		}
		loBit, okLo := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(l64))
		hiBit, okHi := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(m64))
		if !okLo || !okHi {
			w := int(m64 - l64)
			if w < 0 {
				w = -w
			}
			return append(buf, target{ok: false, width: w + 1}), w + 1
		}
		if loBit > hiBit {
			loBit, hiBit = hiBit, loBit
		}
		w := hiBit - loBit + 1
		return append(buf, target{sig: sig, lo: loBit, width: w, ok: true}), w
	case *verilog.ConcatExpr:
		total := 0
		for _, part := range x.Parts { // MSB-first
			var w int
			buf, w = s.appendTargets(buf, inst, part)
			total += w
		}
		return buf, total
	default:
		panic(sim.Faultf("unsupported assignment target at %v", lhs.ExprPos()))
	}
}

// isConstIndex reports whether an index expression's value cannot
// change between executions of its statement: it reads no signals and
// calls no system functions, so it is parameters and literals only.
// Conservative: anything unrecognized is treated as dynamic.
func isConstIndex(inst *Instance, e verilog.Expr) bool {
	con := true
	var walk func(verilog.Expr)
	walk = func(e verilog.Expr) {
		if !con {
			return
		}
		switch x := e.(type) {
		case *verilog.Number, *verilog.StringLit:
		case *verilog.Ident:
			if _, _, kind := inst.lookup(x.Name); kind != 2 {
				con = false // signal read, or undeclared (faults either way)
			}
		case *verilog.Unary:
			walk(x.X)
		case *verilog.Binary:
			walk(x.L)
			walk(x.R)
		case *verilog.Ternary:
			walk(x.Cond)
			walk(x.Then)
			walk(x.Else)
		case *verilog.ConcatExpr:
			for _, p := range x.Parts {
				walk(p)
			}
		case *verilog.ReplicateExpr:
			walk(x.Count)
			walk(x.Value)
		default:
			con = false // $random etc., nested selects
		}
	}
	walk(e)
	return con
}

// staticLHS reports whether an assignment target resolves to the same
// primitive targets on every execution — plain identifiers, constant
// bit/part-selects and memory indexes, and concatenations thereof.
// Static targets are resolved once and the resolution cached
// (pre-bound), so steady-state assignment scheduling does neither
// name lookups nor allocation.
func staticLHS(inst *Instance, lhs verilog.Expr) bool {
	switch x := lhs.(type) {
	case *verilog.Ident:
		return true
	case *verilog.Index:
		return isConstIndex(inst, x.Idx)
	case *verilog.PartSelect:
		return isConstIndex(inst, x.MSB) && isConstIndex(inst, x.LSB)
	case *verilog.ConcatExpr:
		for _, p := range x.Parts {
			if !staticLHS(inst, p) {
				return false
			}
		}
		return true
	}
	return false
}

// applyTargets writes val (of at least totalWidth bits) into the targets,
// slicing MSB-first as Verilog concatenation assignment requires.
func (s *Simulator) applyTargets(ts []target, total int, val hdl.Vector) {
	val = val.Resize(total)
	hi := total
	for _, t := range ts {
		lo := hi - t.width
		part := val.Slice(lo, t.width)
		hi = lo
		if !t.ok {
			continue
		}
		if t.isMem {
			s.setMemWord(t.sig, t.memIdx, part)
			continue
		}
		if t.lo == 0 && t.width == t.sig.Width {
			s.setSignal(t.sig, part)
		} else {
			s.setSignal(t.sig, t.sig.Val.SetSlice(t.lo, part))
		}
	}
}

// scheduleNBA queues one pooled kernel update record per primitive
// target, slicing val MSB-first exactly as applyTargets would at apply
// time (vectors are immutable, so slicing at schedule time is
// equivalent). This replaces the closure-per-assignment NBA
// representation: the records live in the kernel's recycled region
// buffer and the target list is either a cached static binding or the
// simulator's scratch, so a steady-state nonblocking assignment
// performs no allocation at all.
func (s *Simulator) scheduleNBA(ts []target, total int, val hdl.Vector) {
	val = val.Resize(total)
	hi := total
	for i := range ts {
		t := &ts[i]
		lo := hi - t.width
		part := val.Slice(lo, t.width)
		hi = lo
		if !t.ok {
			continue
		}
		r := s.Kernel.NBAPut()
		r.Sig = t.sig
		r.Val = part
		if t.isMem {
			r.Aux = t.memIdx
			r.Apply = s.nbaMem
		} else {
			r.Lo = t.lo
			r.Width = t.width
			r.Apply = s.nbaVec
		}
	}
}

// applyVecNBA commits one pooled vector-target update.
func (s *Simulator) applyVecNBA(r *sim.NBARecord) {
	sig := r.Sig.(*Signal)
	if r.Lo == 0 && r.Width == sig.Width {
		s.setSignal(sig, r.Val)
	} else {
		s.setSignal(sig, sig.Val.SetSlice(r.Lo, r.Val))
	}
}

// applyMemNBA commits one pooled memory-word update.
func (s *Simulator) applyMemNBA(r *sim.NBARecord) {
	s.setMemWord(r.Sig.(*Signal), r.Aux, r.Val)
}

// ---------------------------------------------------------- sensitivity

// buildWait constructs a wait registration (sim.WaitReg) for a
// sensitivity list without arming it; rearmWait arms it. A wait site
// whose sensitivity list is fixed (every always block and every
// in-body event control) builds one registration and re-arms it per
// pass instead of reallocating the whole structure per wakeup. Edge
// items carry the IEEE 1364 edge table as Trigger/Arm hooks over a
// per-watcher baseline.
func (s *Simulator) buildWait(inst *Instance, sens *verilog.SensList, resume func()) *sim.WaitReg {
	if sens.Star {
		panic(sim.Faultf("internal: @* must be expanded before registerWait"))
	}
	r := sim.NewWaitReg(resume)
	for _, item := range sens.Items {
		it := item
		sigs := collectSignals(inst, it.Sig)
		if len(sigs) == 0 {
			continue
		}
		if it.Edge == verilog.EdgeLevel {
			for _, sg := range sigs {
				r.Add(&sg.watch, nil, nil)
			}
			continue
		}
		evalBit := func() hdl.Logic { return s.eval(inst, it.Sig).Bit(0) }
		for _, sg := range sigs {
			var last hdl.Logic
			trigger := func() bool {
				nv := evalBit()
				old := last
				last = nv
				return edgeMatch(old, nv, it.Edge)
			}
			arm := func() { last = evalBit() }
			r.Add(&sg.watch, trigger, arm)
		}
	}
	return r
}

// rearmWait re-arms a wait registration: watchers come back alive with
// a freshly sampled edge baseline and re-attach to their signals unless
// a lazily-pruned entry is still present in the signal's list.
func (s *Simulator) rearmWait(r *sim.WaitReg) {
	r.Rearm()
	if r.Empty() {
		// Nothing to wait on: resume immediately to avoid deadlock.
		s.Kernel.Active(r.Resume())
	}
}

// collectSignals gathers the signals an expression reads in scope inst.
func collectSignals(inst *Instance, e verilog.Expr) []*Signal {
	var out []*Signal
	seen := map[*Signal]bool{}
	var walk func(verilog.Expr)
	add := func(sig *Signal) {
		if sig != nil && !seen[sig] {
			seen[sig] = true
			out = append(out, sig)
		}
	}
	walk = func(e verilog.Expr) {
		switch x := e.(type) {
		case *verilog.Ident:
			sig, _, kind := inst.lookup(x.Name)
			if kind == 1 {
				add(sig)
			}
		case *verilog.Unary:
			walk(x.X)
		case *verilog.Binary:
			walk(x.L)
			walk(x.R)
		case *verilog.Ternary:
			walk(x.Cond)
			walk(x.Then)
			walk(x.Else)
		case *verilog.ConcatExpr:
			for _, p := range x.Parts {
				walk(p)
			}
		case *verilog.ReplicateExpr:
			walk(x.Count)
			walk(x.Value)
		case *verilog.Index:
			walk(x.Base)
			walk(x.Idx)
		case *verilog.PartSelect:
			walk(x.Base)
			walk(x.MSB)
			walk(x.LSB)
		case *verilog.SysFuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// collectStmtReads gathers every expression read by a statement, for
// @* sensitivity expansion.
func collectStmtReads(st verilog.Stmt, out *[]verilog.Expr) {
	switch x := st.(type) {
	case *verilog.Block:
		for _, s := range x.Stmts {
			collectStmtReads(s, out)
		}
	case *verilog.If:
		*out = append(*out, x.Cond)
		collectStmtReads(x.Then, out)
		if x.Else != nil {
			collectStmtReads(x.Else, out)
		}
	case *verilog.Case:
		*out = append(*out, x.Expr)
		for _, item := range x.Items {
			*out = append(*out, item.Exprs...)
			collectStmtReads(item.Body, out)
		}
	case *verilog.For:
		collectStmtReads(x.Init, out)
		*out = append(*out, x.Cond)
		collectStmtReads(x.Step, out)
		collectStmtReads(x.Body, out)
	case *verilog.While:
		*out = append(*out, x.Cond)
		collectStmtReads(x.Body, out)
	case *verilog.Repeat:
		*out = append(*out, x.Count)
		collectStmtReads(x.Body, out)
	case *verilog.Forever:
		collectStmtReads(x.Body, out)
	case *verilog.Assign:
		*out = append(*out, x.RHS)
		// Index expressions on the LHS are also reads.
		collectLValueIndexReads(x.LHS, out)
	case *verilog.DelayStmt:
		collectStmtReads(x.Body, out)
	case *verilog.EventWait:
		collectStmtReads(x.Body, out)
	case *verilog.SysCall:
		*out = append(*out, x.Args...)
	}
}

func collectLValueIndexReads(e verilog.Expr, out *[]verilog.Expr) {
	switch x := e.(type) {
	case *verilog.Index:
		*out = append(*out, x.Idx)
		collectLValueIndexReads(x.Base, out)
	case *verilog.PartSelect:
		*out = append(*out, x.MSB, x.LSB)
		collectLValueIndexReads(x.Base, out)
	case *verilog.ConcatExpr:
		for _, p := range x.Parts {
			collectLValueIndexReads(p, out)
		}
	}
}

// expandStar converts @* into an explicit level sensitivity list.
func (s *Simulator) expandStar(body verilog.Stmt) *verilog.SensList {
	var reads []verilog.Expr
	collectStmtReads(body, &reads)
	sl := &verilog.SensList{}
	for _, e := range reads {
		sl.Items = append(sl.Items, verilog.SensItem{Edge: verilog.EdgeLevel, Sig: e})
	}
	return sl
}

// ---------------------------------------------------------------- exec

// frameKind discriminates procMachine continuation frames.
type frameKind uint8

const (
	fSeq     frameKind = iota // statement list; pc indexes the next stmt
	fBody                     // run st once (resume body of a delay / event wait)
	fFor                      // for loop; phase: 0 init, 1 cond check, 2 step
	fWhile                    // while loop: recheck cond each visit
	fRepeat                   // n iterations remaining
	fForever                  // loop body unconditionally
	fWait                     // wait (cond) stmt: recheck cond on every wake
)

// frame is one entry of a process's explicit continuation stack. All
// fields reference long-lived AST nodes, so frames carry no closures
// and pushing/popping never allocates once the stack has grown.
type frame struct {
	kind  frameKind
	phase uint8
	pc    int
	n     uint64
	stmts []verilog.Stmt
	st    verilog.Stmt
}

// procMachine is the resumable interpreter state of one behavioural
// process: the explicit continuation (a frame stack over the statement
// tree) plus cached wait registrations. step runs the interpreter
// until the next suspension point — a delay or an event-control wait —
// and returns after arranging reactivation; no goroutine sits behind
// it. A suspension unwinds by returning true up the exec call chain,
// leaving the frame stack as the continuation to resume from.
type procMachine struct {
	s        *Simulator
	inst     *Instance
	p        *sim.Process
	body     verilog.Stmt
	sens     *verilog.SensList // non-nil for always @(...) blocks
	stack    []frame
	always   bool                            // always block: restart body when the stack drains
	started  bool                            // initial block: body has been executed
	armed    bool                            // top-level sensitivity wait armed, body run pending
	topReg   *sim.WaitReg                    // cached always-block sensitivity registration
	waits    map[verilog.Stmt]*sim.WaitReg   // cached per-stmt inner wait registrations
	lhs      map[*verilog.Assign]*lhsBinding // pre-bound static assignment targets
	activate func()                          // pre-built resume hook shared by all waits
}

// lhsBinding is the cached resolution of a static assignment target
// (see staticLHS). A nil binding marks an LHS classified as dynamic,
// which resolves through the scratch buffer on every execution.
type lhsBinding struct {
	ts    []target
	total int
}

// lhsTargets resolves an assignment's target list. Static shapes are
// resolved once — on first execution, when name lookup is guaranteed to
// see the fully elaborated scope — and the binding reused on every
// later pass; dynamic shapes (runtime indexes) re-resolve into the
// simulator's scratch buffer, whose contents the caller must consume
// before the next resolve.
func (m *procMachine) lhsTargets(x *verilog.Assign) ([]target, int) {
	if b, ok := m.lhs[x]; ok {
		if b != nil {
			return b.ts, b.total
		}
		return m.s.resolveTargetsScratch(m.inst, x.LHS)
	}
	if m.lhs == nil {
		m.lhs = make(map[*verilog.Assign]*lhsBinding)
	}
	if staticLHS(m.inst, x.LHS) {
		ts, total := m.s.resolveTargets(m.inst, x.LHS)
		m.lhs[x] = &lhsBinding{ts: ts, total: total}
		return ts, total
	}
	m.lhs[x] = nil
	return m.s.resolveTargetsScratch(m.inst, x.LHS)
}

// step is the process continuation the kernel dispatches.
func (m *procMachine) step(p *sim.Process) {
	defer m.s.ProcRecover()
	for {
		for len(m.stack) > 0 {
			if m.runTopFrame() {
				return
			}
		}
		if m.startIteration() {
			return
		}
	}
}

// startIteration begins (or ends) one execution of the process body
// once the continuation stack has drained. It returns true when the
// process suspended or terminated.
func (m *procMachine) startIteration() bool {
	if !m.always {
		if m.started {
			m.p.Terminate()
			return true
		}
		m.started = true
		return m.exec(m.body)
	}
	if m.sens == nil {
		// always without @: must contain delays; the statement budget
		// catches zero-delay loops.
		m.s.Tick()
		return m.exec(m.body)
	}
	if m.armed {
		m.armed = false
		return m.exec(m.body)
	}
	if m.topReg == nil {
		// Built lazily on the first arm so sensitivity errors surface
		// as process faults like every other interpreter error. The
		// list is fixed (@* expands deterministically from the fixed
		// body), so one registration is re-armed per wakeup: the
		// hottest loop in the simulator must not allocate.
		eff := m.sens
		if eff.Star {
			eff = m.s.expandStar(m.body)
		}
		m.topReg = m.s.buildWait(m.inst, eff, m.activate)
	}
	m.armed = true
	m.s.rearmWait(m.topReg)
	return true
}

func (m *procMachine) push(f frame) { m.stack = append(m.stack, f) }

func (m *procMachine) pop() { m.stack = m.stack[:len(m.stack)-1] }

// pushBody queues st to run once on the next machine visit (the
// continuation of a delay or event wait). Bare delays/waits carry a
// Null body, which needs no frame.
func (m *procMachine) pushBody(st verilog.Stmt) {
	if st == nil {
		return
	}
	if _, isNull := st.(*verilog.Null); isNull {
		return
	}
	m.push(frame{kind: fBody, st: st})
}

// runTopFrame advances the topmost continuation frame by one step and
// reports whether the process suspended. exec may grow the stack and
// invalidate the frame pointer, so every frame mutation happens before
// the exec call.
func (m *procMachine) runTopFrame() bool {
	f := &m.stack[len(m.stack)-1]
	switch f.kind {
	case fSeq:
		if f.pc >= len(f.stmts) {
			m.pop()
			return false
		}
		st := f.stmts[f.pc]
		f.pc++
		return m.exec(st)
	case fBody:
		st := f.st
		m.pop()
		return m.exec(st)
	case fFor:
		x := f.st.(*verilog.For)
		switch f.phase {
		case 0:
			f.phase = 1
			return m.exec(x.Init)
		case 1:
			if m.s.eval(m.inst, x.Cond).ToBool() != hdl.L1 {
				m.pop()
				return false
			}
			m.s.Tick()
			f.phase = 2
			return m.exec(x.Body)
		default:
			f.phase = 1
			return m.exec(x.Step)
		}
	case fWhile:
		x := f.st.(*verilog.While)
		if m.s.eval(m.inst, x.Cond).ToBool() != hdl.L1 {
			m.pop()
			return false
		}
		m.s.Tick()
		return m.exec(x.Body)
	case fRepeat:
		if f.n == 0 {
			m.pop()
			return false
		}
		f.n--
		m.s.Tick()
		return m.exec(f.st.(*verilog.Repeat).Body)
	case fForever:
		m.s.Tick()
		return m.exec(f.st.(*verilog.Forever).Body)
	default: // fWait
		x := f.st.(*verilog.WaitStmt)
		if m.s.eval(m.inst, x.Cond).ToBool() == hdl.L1 {
			m.pop()
			return m.exec(x.Body)
		}
		m.s.Tick()
		m.s.rearmWait(m.condRegFor(x))
		return true
	}
}

// exec interprets one statement, pushing continuation frames for
// nested control flow. It returns true when the process suspended and
// the step must unwind.
func (m *procMachine) exec(st verilog.Stmt) bool {
	s, inst := m.s, m.inst
	s.Tick()
	switch x := st.(type) {
	case *verilog.Block:
		if len(x.Stmts) > 0 {
			m.push(frame{kind: fSeq, stmts: x.Stmts})
		}
	case *verilog.If:
		if s.eval(inst, x.Cond).ToBool() == hdl.L1 {
			return m.exec(x.Then)
		} else if x.Else != nil {
			return m.exec(x.Else)
		}
	case *verilog.Case:
		return m.execCase(x)
	case *verilog.For:
		m.push(frame{kind: fFor, st: x})
	case *verilog.While:
		m.push(frame{kind: fWhile, st: x})
	case *verilog.Repeat:
		nv := s.eval(inst, x.Count)
		n, ok := nv.Uint()
		if ok && n > 0 {
			m.push(frame{kind: fRepeat, st: x, n: n})
		}
	case *verilog.Forever:
		m.push(frame{kind: fForever, st: x})
	case *verilog.Assign:
		ts, total := m.lhsTargets(x)
		val := s.evalCtx(inst, x.RHS, total)
		if x.Blocking {
			s.applyTargets(ts, total, val)
		} else {
			// NBA updates apply later, as typed kernel records carrying
			// their own copy of the resolved target bounds — nothing from
			// the scratch resolution is retained.
			s.scheduleNBA(ts, total, val)
		}
	case *verilog.DelayStmt:
		av := s.eval(inst, x.Amount)
		n, ok := av.Uint()
		if !ok {
			panic(sim.Faultf("delay amount is unknown"))
		}
		m.pushBody(x.Body)
		m.p.Delay(sim.Time(n))
		return true
	case *verilog.EventWait:
		m.pushBody(x.Body)
		s.rearmWait(m.waitRegFor(x))
		return true
	case *verilog.WaitStmt:
		m.push(frame{kind: fWait, st: x})
	case *verilog.SysCall:
		s.execSysCall(inst, x)
	case *verilog.Null:
		// nothing
	}
	return false
}

// execCase runs the matching case arm; the arm body may suspend.
func (m *procMachine) execCase(x *verilog.Case) bool {
	s, inst := m.s, m.inst
	subject := s.eval(inst, x.Expr)
	var deflt *verilog.CaseItem
	for i := range x.Items {
		item := &x.Items[i]
		if item.Exprs == nil {
			deflt = item
			continue
		}
		for _, pat := range item.Exprs {
			pv := s.eval(inst, pat)
			if caseMatches(x.Kind, subject, pv) {
				return m.exec(item.Body)
			}
		}
	}
	if deflt != nil {
		return m.exec(deflt.Body)
	}
	return false
}

// waitRegFor returns the cached wait registration for an event-control
// statement, building it on first use. A process executes sequentially,
// so a given wait statement is pending at most once per process and its
// registration can be re-armed instead of rebuilt every pass.
func (m *procMachine) waitRegFor(x *verilog.EventWait) *sim.WaitReg {
	if r, ok := m.waits[x]; ok {
		return r
	}
	sens := x.Sens
	if sens.Star {
		sens = m.s.expandStar(x.Body)
	}
	r := m.s.buildWait(m.inst, sens, m.activate)
	m.cacheWait(x, r)
	return r
}

// condRegFor returns the cached level-sensitive wait on a
// wait-statement condition.
func (m *procMachine) condRegFor(x *verilog.WaitStmt) *sim.WaitReg {
	if r, ok := m.waits[x]; ok {
		return r
	}
	sl := &verilog.SensList{Items: []verilog.SensItem{{Edge: verilog.EdgeLevel, Sig: x.Cond}}}
	r := m.s.buildWait(m.inst, sl, m.activate)
	if r.Empty() {
		panic(sim.Faultf("wait condition can never change"))
	}
	m.cacheWait(x, r)
	return r
}

func (m *procMachine) cacheWait(key verilog.Stmt, r *sim.WaitReg) {
	if m.waits == nil {
		m.waits = make(map[verilog.Stmt]*sim.WaitReg)
	}
	m.waits[key] = r
}

// caseMatches compares subject and pattern under case/casez/casex rules.
func caseMatches(kind verilog.CaseKind, subject, pat hdl.Vector) bool {
	w := subject.Width()
	if pat.Width() > w {
		w = pat.Width()
	}
	sv, pv := subject.Resize(w), pat.Resize(w)
	for i := 0; i < w; i++ {
		sb, pb := sv.Bit(i), pv.Bit(i)
		switch kind {
		case verilog.CaseZ:
			if sb == hdl.LZ || pb == hdl.LZ {
				continue
			}
		case verilog.CaseX:
			if sb == hdl.LZ || pb == hdl.LZ || sb == hdl.LX || pb == hdl.LX {
				continue
			}
		}
		if sb != pb {
			return false
		}
	}
	return true
}
