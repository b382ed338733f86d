package vsim

import (
	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// Process bodies lower here into sim.Machine programs over lowered
// expressions (sim.Expr) and targets (lval), bound when the run starts;
// signal watching and the IEEE 1364 edge table live in internal/sim.

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

// lval is one primitive assignment target in lowered form, MSB-first
// within its assignment, and the place its last resolution is kept:
// resolve fills ok, lo, width and word on every execution, before the
// value is evaluated, and write reads them back.
type lval struct {
	sig  *Signal
	a, b *sim.Expr // the index (a memory word's), or the part-select's bounds
	msg  string    // the fault a bad target raises, "" for none

	ok    bool // false: discard the write (unknown or out-of-range select)
	lo    int  // bit offset of a vector write
	width int
	word  int // a memory word's index
}

// lowerLHS lowers an assignment target, in scope inst, into its
// primitive targets, MSB-first for concatenations.
func (s *Simulator) lowerLHS(inst *Instance, lhs verilog.Expr) []lval {
	s.lhs = s.appendLHS(s.lhs[:0], inst, lhs)
	return append(s.lvals.Alloc(len(s.lhs))[:0], s.lhs...)
}

func (s *Simulator) appendLHS(ts []lval, inst *Instance, lhs verilog.Expr) []lval {
	fault := func(format string, args ...any) []lval {
		return append(ts, lval{msg: sim.Faultf(format, args...).Msg})
	}
	var t lval
	switch x := lhs.(type) {
	case *verilog.Ident:
		if t.sig = inst.Signals[x.Name]; t.sig == nil {
			return fault("assignment to non-signal %q", x.Name)
		}
		if t.sig.IsMem {
			return fault("assignment to memory %q without an index", x.Name)
		}
	case *verilog.Index:
		base, ok := x.Base.(*verilog.Ident)
		if !ok {
			return fault("unsupported assignment target at %v", x.Pos)
		}
		if t.sig = inst.Signals[base.Name]; t.sig == nil {
			return fault("assignment to non-signal %q", base.Name)
		}
		t.a = s.lower(inst, x.Idx)
	case *verilog.PartSelect:
		base, ok := x.Base.(*verilog.Ident)
		if !ok {
			return fault("unsupported assignment target at %v", x.Pos)
		}
		if t.sig = inst.Signals[base.Name]; t.sig == nil || t.sig.IsMem {
			return fault("bad part-select assignment target %q", base.Name)
		}
		t.a, t.b = s.lower(inst, x.MSB), s.lower(inst, x.LSB)
	case *verilog.ConcatExpr:
		for _, p := range x.Parts {
			ts = s.appendLHS(ts, inst, p)
		}
		return ts
	default:
		return fault("unsupported assignment target at %v", lhs.ExprPos())
	}
	return append(ts, t)
}

// resolve evaluates the targets' selects, in order, and returns their
// total width, the context the assigned value is evaluated in.
func (s *Simulator) resolve(ts []lval) int {
	total := 0
	for i := range ts {
		t := &ts[i]
		switch {
		case t.msg != "":
			panic(sim.Fault{Msg: t.msg})
		case t.sig.IsMem:
			idx, known := s.Index(t.a)
			t.ok, t.width, t.word = known, t.sig.Width, int(idx)
		default:
			t.ok, t.lo, t.width = s.Place(t.a, t.b, t.sig.MSB, t.sig.LSB, true)
		}
		total += t.width
	}
	return total
}

// write writes val (of at least total bits) into the resolved targets,
// slicing MSB-first as Verilog concatenation assignment requires: at
// once, or as pooled kernel update records of the NBA region, which
// carry their own copy of the target's bounds (vectors are immutable,
// so slicing at schedule time is equivalent), so a steady-state
// nonblocking assignment performs no allocation at all.
func (s *Simulator) write(ts []lval, total int, val hdl.Vector, nba bool) {
	val = val.Resize(total)
	hi := total
	for i := range ts {
		t := &ts[i]
		lo := hi - t.width
		part := val.Slice(lo, t.width)
		hi = lo
		switch {
		case !t.ok:
		case nba:
			r := s.Kernel.NBAPut()
			r.Sig, r.Val, r.Lo, r.Width, r.Aux, r.Apply = t.sig, part, t.lo, t.width, t.word, s.nbaVec
			if t.sig.IsMem {
				r.Apply = s.nbaMem
			}
		case t.sig.IsMem:
			s.setMemWord(t.sig, t.word, part)
		case t.lo == 0 && t.width == t.sig.Width:
			s.setSignal(t.sig, part)
		default:
			s.setSignal(t.sig, t.sig.Val.SetSlice(t.lo, part))
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

// ---------------------------------------------------------------- exec

// edges maps a sensitivity item's edge onto a watcher's.
var edges = [...]sim.Edge{verilog.EdgeLevel: sim.Level, verilog.EdgePos: sim.Rising, verilog.EdgeNeg: sim.Falling}

// opSlot is the Verilog slot of an OpLeaf (see sim.Machine).
type opSlot struct {
	lhs  []lval           // OpLeaf assignment: its targets
	e    *sim.Expr        // OpLeaf assignment: its value; OpCase: the subject
	nba  bool             // OpLeaf assignment: nonblocking
	call *verilog.SysCall // OpLeaf: a system task
	kase *verilog.Case    // OpCase
	list []*sim.Expr      // OpLeaf: the task's arguments (nil for a leading string); OpCase: the patterns, item by item
}

type op = sim.Op[opSlot]

// proc is one always or initial block: the process machine running its
// lowered body, and the scope its system tasks report.
type proc struct {
	sim.Machine[opSlot]
	s    *Simulator
	inst *Instance
}

// A process body lowers in the scope of inst. Every expression an @*
// expands from is kept in star as it is lowered, except inside a wait
// (cond) statement (quiet), which @* does not read.

// expr lowers e, which an enclosing @* reads.
func (s *Simulator) expr(e verilog.Expr) *sim.Expr {
	n := s.lower(s.inst, e)
	s.read(n)
	return n
}

// list lowers es, which an enclosing @* reads; nil for none.
func (s *Simulator) list(es []verilog.Expr) []*sim.Expr {
	out := s.lowerList(s.inst, es)
	s.read(out...)
	return out
}

// read keeps es, but for nils, as expressions an enclosing @* reads.
func (s *Simulator) read(es ...*sim.Expr) {
	for _, e := range es {
		if e != nil && s.quiet == 0 {
			s.star = append(s.star, e)
		}
	}
}

// bindProcess starts an initial block (always false), which runs its
// body once, or an always block, which runs it over and over: after
// waiting on its event control, or without one after charging a step
// (the statement budget catches a body that never waits).
func (s *Simulator) bindProcess(inst *Instance, name string, body verilog.Stmt, sens *verilog.SensList, always bool) {
	p := s.procs.Alloc()
	p.s, p.inst = s, inst
	p.Start(&s.Runtime, name, p)
	b := &s.prog
	b.Begin()
	s.inst, s.star = inst, s.star[:0]
	switch {
	case !always:
		s.stmt(body)
		b.Emit(sim.OpHalt, opSlot{})
	case sens == nil:
		top := b.Label()
		b.Tick()
		s.stmt(body)
		b.Jump(top)
	default:
		b.Op(b.Emit(sim.OpWait, opSlot{})).Next = 0
		s.stmt(body)
		b.Op(0).Sens = s.sens(sens, 0)
		b.Jump(0)
	}
	p.SetProgram(b.End())
}

// sens records an event control's sensitivity items: @* expands to a
// level item for every expression its statement reads (those kept in
// star since from), an explicit list to one item per entry.
func (s *Simulator) sens(sl *verilog.SensList, from int) [2]int32 {
	if sl.Star {
		return s.AddSens(-1, sim.Level, s.star[from:]...)
	}
	items := s.AddSens(-1, sim.Level)
	for _, it := range sl.Items {
		items = s.AddSens(items[0], edges[it.Edge], s.lower(s.inst, it.Sig))
	}
	return items
}

// stmt lowers one statement, which charges a step when it starts.
func (s *Simulator) stmt(st verilog.Stmt) {
	inst, b := s.inst, &s.prog
	b.Tick()
	switch x := st.(type) {
	case *verilog.Block:
		for _, inner := range x.Stmts {
			s.stmt(inner)
		}
	case *verilog.If:
		test := b.If(s.expr(x.Cond))
		s.stmt(x.Then)
		if x.Else != nil {
			end := b.Jump(-1)
			b.Resolve(test, b.Label())
			s.stmt(x.Else)
			test = end
		}
		b.Resolve(test, b.Label())
	case *verilog.Case:
		b.Case(s.expr(x.Expr), caseKind(x.Kind), len(x.Items), func(i int) []*sim.Expr {
			s.stmt(x.Items[i].Body)
			return s.list(x.Items[i].Exprs)
		})
	case *verilog.For:
		s.stmt(x.Init)
		b.While(s.expr(x.Cond), func() {
			s.stmt(x.Body)
			s.stmt(x.Step)
		})
	case *verilog.While:
		b.While(s.expr(x.Cond), func() { s.stmt(x.Body) })
	case *verilog.Repeat:
		b.Counted(op{E: s.expr(x.Count)}, func() { s.stmt(x.Body) })
	case *verilog.Forever:
		top := b.Label()
		b.Tick()
		s.stmt(x.Body)
		b.Jump(top)
	case *verilog.Assign:
		lhs := s.lowerLHS(inst, x.LHS)
		for _, t := range lhs {
			s.read(t.a, t.b)
		}
		b.Emit(sim.OpLeaf, opSlot{lhs: lhs, e: s.expr(x.RHS), nba: !x.Blocking})
	case *verilog.SysCall:
		args := s.Exprs(len(x.Args))
		for i, a := range x.Args {
			if _, text := a.(*verilog.StringLit); i > 0 || !text {
				args[i] = s.expr(a)
			}
		}
		b.Emit(sim.OpLeaf, opSlot{call: x, list: args})
	case *verilog.DelayStmt:
		d := b.Emit(sim.OpDelay, opSlot{})
		b.Op(d).E, b.Op(d).Fault = s.lower(inst, x.Amount), "delay amount is unknown"
		s.guarded(x.Body)
	case *verilog.EventWait:
		w := b.Emit(sim.OpWait, opSlot{})
		b.Op(w).Next = int32(w)
		from := len(s.star)
		s.guarded(x.Body)
		b.Op(w).Sens = s.sens(x.Sens, from)
	case *verilog.WaitStmt:
		b.Label() // resumes test the condition again
		cond := s.lower(inst, x.Cond)
		w := b.Emit(sim.OpWaitUntil, opSlot{})
		o := b.Op(w)
		o.E, o.Fault = cond, "wait condition can never change"
		o.Sens = s.AddSens(-1, sim.Level, cond)
		s.quiet++
		s.stmt(x.Body)
		s.quiet--
	}
}

// guarded lowers the statement a delay or event control guards; a bare
// `#d;` or `@(...);` guards nothing, not even a step.
func (s *Simulator) guarded(st verilog.Stmt) {
	if _, null := st.(*verilog.Null); st != nil && !null {
		s.stmt(st)
	}
}

// Exec runs an assignment or a system task.
func (p *proc) Exec(o *op) {
	s := p.s
	if o.X.call != nil {
		s.execSysCall(p.inst, o.X.call, o.X.list)
		return
	}
	total := s.resolve(o.X.lhs)
	s.write(o.X.lhs, total, s.Eval(o.X.e, total), o.X.nba)
}

// caseKind matches case, casez and casex patterns (sim.Match).
type caseKind verilog.CaseKind

func (k caseKind) Match(r *sim.Runtime, subj hdl.Vector, _, pat *sim.Expr) bool {
	return caseMatches(verilog.CaseKind(k), subj, r.Eval(pat, 0))
}

// caseMatches compares subject and pattern under case/casez/casex
// rules: casez ignores Z bits on either side, casex X and Z bits.
func caseMatches(kind verilog.CaseKind, subject, pat hdl.Vector) bool {
	w := max(subject.Width(), pat.Width())
	sv, pv := subject.Resize(w), pat.Resize(w)
	for i := range w {
		sb, pb := sv.Bit(i), pv.Bit(i)
		wild := kind != verilog.CaseExact && (sb == hdl.LZ || pb == hdl.LZ) ||
			kind == verilog.CaseX && (sb == hdl.LX || pb == hdl.LX)
		if !wild && sb != pb {
			return false
		}
	}
	return true
}
