package sim

// Machine is the one process machine both simulators run every always
// block, initial block and VHDL process on. A front-end lowers a
// process body with a Builder into a flat program of Ops and supplies
// the leaf Hooks; the machine owns the control flow, the suspensions
// and the per-op slots that outlive one pass: wait registrations, loop
// counters and the front-end's slot X.

// OpKind is what an Op does when control reaches it.
type OpKind uint8

const (
	OpLeaf      OpKind = iota // Exec, then the next op
	OpJump                    // continue at Next
	OpIf                      // the next op if Cond holds, else Next
	OpCase                    // op pc+1+Case: a jump table of one OpJump per arm, plus one for no arm, follows
	OpLoop                    // Loop sets the values of the OpNext that follows
	OpNext                    // past Last: Leave, continue at Next; else charge a step, Iter(Cur), step Cur, next op
	OpExit                    // Leave the loop whose OpNext is at Next, continue where it ends
	OpDelay                   // suspend for Delay, resume at the next op
	OpWait                    // arm the registration of op Next (itself, or the OpWaitUntil after it), suspend, resume at the next op
	OpWaitUntil               // the next op if Cond holds, else charge a step, arm, suspend, test again on resume
	OpHalt                    // terminate the process
)

// Op is one operation of a program and its slot. Kind, Ticks and Next
// are fixed by the lowering; the other fields are the slot.
type Op[X any] struct {
	Kind  OpKind
	Ticks uint32 // statement-budget steps charged whenever control reaches the op
	Next  int32

	Wait      *WaitReg // built by the Wait hook on the first arming, re-armed after
	Cur, Last int64    // OpNext: the next and the last value
	Down      bool     // OpNext: counting down
	X         X
}

// Hooks are a front-end's leaf operations on the op being executed.
type Hooks[X any] interface {
	Exec(op *Op[X])                                // run a leaf statement
	Cond(op *Op[X]) bool                           // whether a condition holds
	Case(op *Op[X]) int                            // the arm taken, or the arm count for none
	Delay(op *Op[X]) Time                          // a delay, faulting when unknown
	Wait(op *Op[X], r *WaitReg)                    // build a wait site's registration into r: Init, then Watch
	Loop(op *Op[X]) (first, last int64, down bool) // a counted loop's values (op is its OpNext); binds its variable
	Iter(op *Op[X], v int64)                       // set the loop variable for the next pass
	Leave(op *Op[X])                               // unbind the loop variable
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
			if m.h.Cond(op) {
				m.pc++
			} else {
				m.pc = int(op.Next)
			}
		case OpCase:
			m.pc += 1 + m.h.Case(op)
		case OpLoop:
			m.pc++
			next := &m.prog[m.pc]
			next.Cur, next.Last, next.Down = m.h.Loop(next)
		case OpNext:
			if op.Down && op.Cur < op.Last || !op.Down && op.Cur > op.Last {
				m.h.Leave(op)
				m.pc = int(op.Next)
				continue
			}
			m.rt.Tick()
			m.h.Iter(op, op.Cur)
			if op.Down {
				op.Cur--
			} else {
				op.Cur++
			}
			m.pc++
		case OpExit:
			loop := &m.prog[op.Next]
			m.h.Leave(loop)
			m.pc = int(loop.Next)
		case OpDelay:
			d := m.h.Delay(op)
			m.pc++
			m.Delay(d)
			return
		case OpWait:
			m.pc++
			m.arm(&m.prog[op.Next])
			return
		case OpWaitUntil:
			if m.h.Cond(op) {
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

// arm arms op's registration, building it on first use. One that
// watches nothing resumes the process at once.
func (m *Machine[X]) arm(op *Op[X]) {
	if op.Wait == nil {
		op.Wait = m.rt.waits.Alloc()
		m.h.Wait(op, op.Wait)
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
func (b *Builder[X]) While(cond X, body func()) {
	top := b.Label()
	test := b.Emit(OpIf, cond)
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

// Counted lowers a counted loop whose OpNext carries x.
func (b *Builder[X]) Counted(x X, body func()) {
	var zero X
	b.Emit(OpLoop, zero)
	next := b.Emit(OpNext, x)
	b.loops = append(b.loops, loop{next: next, exits: -1})
	body()
	b.loops = b.loops[:len(b.loops)-1]
	b.Jump(next)
	b.Resolve(next, b.Label())
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

// Case lowers a case dispatch on x over arms arms, lowering arm i with
// arm(i).
func (b *Builder[X]) Case(x X, arms int, arm func(i int)) {
	var zero X
	c := b.Emit(OpCase, x)
	for range arms + 1 {
		b.Emit(OpJump, zero)
	}
	end := -1
	for i := range arms {
		b.Resolve(c+1+i, b.Label())
		arm(i)
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
