package sim

import (
	"math"

	"repro/internal/hdl"
)

// Machine is the one process machine both simulators run every always
// block, initial block and VHDL process on. A front-end lowers a
// process body with a Builder into a flat program of Ops, whose
// conditions, case patterns, loop bounds, delays and sensitivities are
// lowered expressions the machine evaluates itself, and supplies the
// leaf statements (Hooks); the machine owns the control flow, the
// suspensions and the per-op slots that outlive one pass: wait
// registrations, loop counters and the front-end's slot X.

// OpKind is what an Op does when control reaches it.
type OpKind uint8

const (
	OpLeaf      OpKind = iota // Exec, then the next op
	OpJump                    // continue at Next
	OpIf                      // the next op if E holds, else Next
	OpCase                    // the jump-table OpJump of the arm taken (see taken): one per arm, plus one for no arm, follows
	OpLoop                    // start the loop of the OpNext that follows (see loop)
	OpNext                    // past Last: continue at Next; else charge a step, set Var to Cur, step Cur, next op
	OpExit                    // continue where the loop whose OpNext is at Next ends
	OpDelay                   // suspend for E time units (faulting with Fault when unknown), resume at the next op
	OpWait                    // arm the registration of op Next (itself, or the OpWaitUntil after it), suspend, resume at the next op
	OpWaitUntil               // the next op if E holds, else charge a step, arm, suspend, test again on resume
	OpHalt                    // terminate the process
)

// Op is one operation of a program and its slot. Everything but Wait,
// Cur, Last, Down and X is fixed by the lowering.
type Op[X any] struct {
	Kind  OpKind
	Ticks uint32 // statement-budget steps charged whenever control reaches the op
	Next  int32

	E     *Expr       // OpIf, OpWaitUntil: the condition; OpDelay: the amount; OpCase: the subject; OpNext: the count or first value
	To    *Expr       // OpNext of a for loop: the last value (nil: E is a repeat count)
	Pats  []*Expr     // OpJump of a case arm: its patterns (nil: a default arm)
	Match Match       // OpCase: whether a pattern matches the subject
	Sens  [2]int32    // an armed op: its sensitivity items in the Runtime (AddSens)
	Fault string      // OpDelay, OpNext: the unknown-value fault; armed op: the empty-sensitivity fault, "" to resume at once
	Var   *hdl.Vector // OpNext: the loop variable, set to each value as a 32-bit integer, or nil

	Wait      *WaitReg // built from Sens on the first arming, re-armed after
	Cur, Last int64    // OpNext: the next and the last value
	Down      bool     // OpNext: counting down
	X         X
}

// Match is how a case statement matches its patterns.
type Match interface {
	// Match reports whether pattern pat matches subject, the value of
	// the case's subject expression s.
	Match(r *Runtime, subject hdl.Vector, s, pat *Expr) bool
}

// Hooks are a front-end's leaf statements.
type Hooks[X any] interface {
	Exec(op *Op[X]) // run the leaf statement of op
}

// Machine is one process running its program. Its suspended state is
// the program counter and the slots, so a kernel activation is a plain
// call that runs to the next suspension and arranges its own
// reactivation.
type Machine[X any] struct {
	Process
	prog []Op[X]
	pc   int
	rt   *Runtime
	h    Hooks[X]

	// resume is Activate, bound when a wait first watches nothing: such
	// a wait resumes the process through an event of its own.
	resume func()
}

// Start makes m a process of rt's kernel, first activated in the
// current active region. SetProgram must give it a program before the
// kernel runs.
func (m *Machine[X]) Start(rt *Runtime, name string, h Hooks[X]) {
	m.rt, m.h = rt, h
	m.Process.Start(rt.Kernel, name, m)
}

// SetProgram sets the program m runs from its first op.
func (m *Machine[X]) SetProgram(prog []Op[X]) { m.prog, m.pc = prog, 0 }

// Step runs the program to its next suspension.
func (m *Machine[X]) Step() {
	for {
		op := &m.prog[m.pc]
		for range op.Ticks {
			m.rt.Tick()
		}
		switch op.Kind {
		case OpLeaf:
			m.h.Exec(op)
			m.pc++
		case OpJump:
			m.pc = int(op.Next)
		case OpIf:
			if m.rt.Truth(op.E) {
				m.pc++
			} else {
				m.pc = int(op.Next)
			}
		case OpCase:
			m.pc += 1 + m.taken(op)
		case OpLoop:
			m.pc++
			m.loop(&m.prog[m.pc])
		case OpNext:
			if op.Down && op.Cur < op.Last || !op.Down && op.Cur > op.Last {
				m.pc = int(op.Next)
				continue
			}
			m.rt.Tick()
			if op.Var != nil {
				*op.Var = hdl.FromInt(op.Cur, 32)
			}
			if op.Down {
				op.Cur--
			} else {
				op.Cur++
			}
			m.pc++
		case OpExit:
			m.pc = int(m.prog[op.Next].Next)
		case OpDelay:
			d, ok := m.rt.Eval(op.E, 0).Uint()
			if !ok {
				panic(Fault{Msg: op.Fault})
			}
			m.pc++
			m.Delay(Time(d))
			return
		case OpWait:
			m.pc++
			m.arm(&m.prog[op.Next])
			return
		case OpWaitUntil:
			if m.rt.Truth(op.E) {
				m.pc++
				continue
			}
			m.rt.Tick()
			m.arm(op)
			return
		default: // OpHalt
			m.Terminate()
			return
		}
	}
}

// taken evaluates the subject of case op, the op at pc, and returns the
// first arm with a pattern that matches it, else the last default arm,
// else the arm count (no arm).
func (m *Machine[X]) taken(op *Op[X]) int {
	subject := m.rt.Eval(op.E, 0)
	arms := m.prog[m.pc+1 : m.pc+1+int(op.Next)]
	taken := len(arms)
	for i := range arms {
		if arms[i].Pats == nil {
			taken = i
		}
		for _, p := range arms[i].Pats {
			if op.Match.Match(m.rt, subject, op.E, p) {
				return i
			}
		}
	}
	return taken
}

// loop starts the counted loop whose OpNext is op: a repeat counts from
// 1 to E, not at all when E is unknown and no further than int64 could
// reach before the statement budget does; a for loop runs from E to To,
// faulting when either is unknown.
func (m *Machine[X]) loop(op *Op[X]) {
	if op.To == nil {
		n, ok := m.rt.Eval(op.E, 0).Uint()
		op.Cur, op.Last = 1, int64(min(n, math.MaxInt64))
		if !ok {
			op.Last = 0
		}
		return
	}
	first, ok1 := m.rt.Eval(op.E, 0).Int()
	last, ok2 := m.rt.Eval(op.To, 0).Int()
	if !ok1 || !ok2 {
		panic(Fault{Msg: op.Fault})
	}
	op.Cur, op.Last = first, last
}

// arm arms op's registration, building it on first use with a watcher
// on every signal each sensitivity item reads. One that watches nothing
// faults, or resumes the process at once when op has no fault for it.
func (m *Machine[X]) arm(op *Op[X]) {
	if op.Wait == nil {
		rt := m.rt
		op.Wait = rt.waits.Alloc()
		op.Wait.Init(&m.Process, rt)
		for i := op.Sens[0]; i < op.Sens[1]; i++ {
			it := rt.sens[i]
			for _, l := range rt.Reads(it.E) {
				op.Wait.Watch(l, it.Edge, int(i))
			}
		}
		if op.Wait.Empty() && op.Fault != "" {
			panic(Fault{Msg: op.Fault})
		}
	}
	op.Wait.Rearm()
	if op.Wait.Empty() {
		if m.resume == nil {
			m.resume = m.Activate
		}
		m.rt.Kernel.Active(m.resume)
	}
}

// Builder lowers process bodies into programs, one after another into
// storage that Reset keeps for the next run. Ticks accumulate as the
// lowering enters statements and land on the next op emitted; Label
// first flushes them into an op of their own, because an op reached by
// a jump may charge only the steps of every path into it.
type Builder[X any] struct {
	ops     []Op[X]
	start   int    // first op of the program being built
	pending uint32 // steps the next op charges
	loops   []loop // the loops enclosing the statement being lowered
}

// loop is an enclosing loop: a counted loop's OpNext, or for a While
// (next -1) the chain of its exit jumps.
type loop struct{ next, exits int }

// Begin starts a program.
func (b *Builder[X]) Begin() { b.start = len(b.ops) }

// Tick charges one more step on the next op.
func (b *Builder[X]) Tick() { b.pending++ }

// Emit appends an op and returns its index in the program. Its Next is
// -1, an empty chain for Resolve.
func (b *Builder[X]) Emit(k OpKind, x X) int {
	b.ops = append(b.ops, Op[X]{Kind: k, Ticks: b.pending, Next: -1, X: x})
	b.pending = 0
	return len(b.ops) - 1 - b.start
}

// If emits an OpIf on cond and returns its index, a chain for Resolve.
func (b *Builder[X]) If(cond *Expr) int {
	var zero X
	i := b.Emit(OpIf, zero)
	b.Op(i).E = cond
	return i
}

// Op returns op i of the program being built.
func (b *Builder[X]) Op(i int) *Op[X] { return &b.ops[b.start+i] }

// Label returns the index of the next op as a jump target.
func (b *Builder[X]) Label() int {
	if b.pending != 0 {
		b.Jump(len(b.ops) - b.start + 1)
	}
	return len(b.ops) - b.start
}

// Jump emits an OpJump to target and returns its index. A jump to a
// label not placed yet targets the chain it joins instead (the chain's
// last jump, or -1), and becomes the chain's last jump.
func (b *Builder[X]) Jump(target int) int {
	var zero X
	i := b.Emit(OpJump, zero)
	b.Op(i).Next = int32(target)
	return i
}

// Resolve points every op of chain at target.
func (b *Builder[X]) Resolve(chain, target int) {
	for chain >= 0 {
		op := b.Op(chain)
		chain = int(op.Next)
		op.Next = int32(target)
	}
}

// While lowers a loop that tests cond before every pass and charges a
// step before every body.
func (b *Builder[X]) While(cond *Expr, body func()) {
	top := b.Label()
	test := b.If(cond)
	b.Tick()
	b.loops = append(b.loops, loop{next: -1, exits: -1})
	body()
	exits := b.loops[len(b.loops)-1].exits
	b.loops = b.loops[:len(b.loops)-1]
	b.Jump(top)
	end := b.Label()
	b.Resolve(test, end)
	b.Resolve(exits, end)
}

// Counted lowers a counted loop whose OpNext is next (its E, To, Var,
// Down and Fault; see loop).
func (b *Builder[X]) Counted(next Op[X], body func()) {
	var zero X
	b.Emit(OpLoop, zero)
	n := b.Emit(OpNext, next.X)
	o := b.Op(n)
	o.E, o.To, o.Var, o.Down, o.Fault = next.E, next.To, next.Var, next.Down, next.Fault
	b.loops = append(b.loops, loop{next: n, exits: -1})
	body()
	b.loops = b.loops[:len(b.loops)-1]
	b.Jump(n)
	b.Resolve(n, b.Label())
}

// Exit lowers a jump out of the innermost enclosing loop, reporting
// false when there is none.
func (b *Builder[X]) Exit() bool {
	if len(b.loops) == 0 {
		return false
	}
	l := &b.loops[len(b.loops)-1]
	if l.next >= 0 {
		var zero X
		b.Op(b.Emit(OpExit, zero)).Next = int32(l.next)
	} else {
		l.exits = b.Jump(l.exits)
	}
	return true
}

// Case lowers a case dispatch on subject over arms arms, matched by
// match: arm(i) lowers arm i and returns its patterns (nil: a default
// arm).
func (b *Builder[X]) Case(subject *Expr, match Match, arms int, arm func(i int) []*Expr) {
	var zero X
	c := b.Emit(OpCase, zero)
	b.Op(c).E, b.Op(c).Match, b.Op(c).Next = subject, match, int32(arms)
	for range arms + 1 {
		b.Emit(OpJump, zero)
	}
	end := -1
	for i := range arms {
		b.Resolve(c+1+i, b.Label())
		pats := arm(i)
		b.Op(c + 1 + i).Pats = pats
		if i < arms-1 {
			end = b.Jump(end)
		}
	}
	done := b.Label()
	b.Resolve(c+1+arms, done)
	b.Resolve(end, done)
}

// End returns the finished program. Later programs may move the
// builder's storage but not this one's, so pointers into its slots stay
// valid.
func (b *Builder[X]) End() []Op[X] { return b.ops[b.start:len(b.ops):len(b.ops)] }

// Reset drops the run's programs and zeroes their ops, keeping the
// storage.
func (b *Builder[X]) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
	b.loops = b.loops[:0]
}
