// Package vhdlsim elaborates a parsed VHDL design and lowers its
// processes, concurrent assignments and port associations, once per
// run, into the process programs and expression form internal/sim runs
// on the shared event kernel. VHDL semantics differ from Verilog in
// ways the lowering keeps for the supported subset: every process runs
// once at time zero; signal assignments always take effect in the next
// delta (or after an explicit `after` delay); variables update
// immediately and persist across process activations.
package vhdlsim

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/lex"
	"repro/internal/sim"
	"repro/internal/vhdl"
)

// SigKind tags the declared type of a signal for operator dispatch.
type SigKind int

// Signal kinds.
const (
	KindLogic  SigKind = iota // std_logic
	KindVector                // std_logic_vector / unsigned / signed
	KindInt                   // integer / natural / positive
	KindBool                  // boolean
)

// Signal is one elaborated VHDL signal.
type Signal struct {
	Name  string
	Kind  SigKind
	Width int
	MSB   int // left bound for downto; for `to` ranges MSB < LSB
	LSB   int

	Val  hdl.Vector
	Prev hdl.Vector
	// eventStamp is the run-global delta serial in which the most
	// recent value change becomes observable; compared against the
	// kernel's current serial for 'event (0 = never changed).
	eventStamp uint64

	watch sim.WatchList
}

// Instance is one node of the elaborated hierarchy.
type Instance struct {
	Path     string
	Entity   *vhdl.Entity
	Arch     *vhdl.Architecture
	Signals  map[string]*Signal
	Generics map[string]hdl.Vector
	Children []*Instance
	Parent   *Instance
}

// Design is the elaborated hierarchy plus bound behaviour.
type Design struct {
	Top      *Instance
	entities map[string]*vhdl.Entity
	archs    map[string]*vhdl.Architecture

	processes   []boundProcess
	concAssigns []boundConc
	portBinds   []portBind

	arena     sim.Arena[Signal]   // chunked Signal storage
	insts     sim.Arena[Instance] // chunked Instance storage
	sigMaps   sim.Maps[string, *Signal]
	instances int // elaborated so far, bounded by sim.MaxInstances
}

type boundProcess struct {
	scope *Instance
	ps    *vhdl.ProcessStmt
}

type boundConc struct {
	scope *Instance
	ca    *vhdl.ConcAssign
}

// portBind links a child port to a parent actual expression.
type portBind struct {
	childScope  *Instance
	parentScope *Instance
	portName    string
	dir         vhdl.PortDir
	actual      vhdl.Expr
}

// Elaborate builds the design rooted at the entity named top. The
// Design belongs to the caller and is never recycled, so it stays
// readable after SimulateDesign has run it.
func Elaborate(units []*vhdl.DesignFile, top string) (*Design, error) {
	d := &Design{}
	if err := d.elaborate(units, top); err != nil {
		return nil, err
	}
	return d, nil
}

// elaborate builds the design rooted at the entity named top into a
// new or reset d.
func (d *Design) elaborate(units []*vhdl.DesignFile, top string) error {
	if d.entities == nil {
		d.entities = map[string]*vhdl.Entity{}
		d.archs = map[string]*vhdl.Architecture{}
	}
	for _, u := range units {
		for _, e := range u.Entities {
			d.entities[e.Name] = e
		}
		for _, a := range u.Archs {
			d.archs[a.EntityName] = a // last architecture wins
		}
	}
	ent, ok := d.entities[top]
	if !ok {
		return fmt.Errorf("top entity %q not found", top)
	}
	inst, err := d.elabInstance(nil, ent, top, nil, ent.Pos)
	if err != nil {
		return err
	}
	d.Top = inst
	return nil
}

// reset empties d for the next elaboration into it, keeping its
// storage: the arenas and binding slices are cleared up to what the
// last elaboration filled, and the unit and instance maps emptied, so
// d keeps no pointer into the units it was built from.
func (d *Design) reset() {
	clear(d.entities)
	clear(d.archs)
	clear(d.processes)
	clear(d.concAssigns)
	clear(d.portBinds)
	d.arena.Reset()
	d.insts.Reset()
	d.sigMaps.Reset()
	*d = Design{
		entities:    d.entities,
		archs:       d.archs,
		processes:   d.processes[:0],
		concAssigns: d.concAssigns[:0],
		portBinds:   d.portBinds[:0],
		arena:       d.arena,
		insts:       d.insts,
		sigMaps:     d.sigMaps,
	}
}

// newSignal resolves one signal declaration of inst against its
// generics and allocates it.
func (d *Design) newSignal(inst *Instance, name string, tr vhdl.TypeRef, init vhdl.Expr) error {
	sp, err := inst.makeSigSpec(name, tr, init)
	if err != nil {
		return err
	}
	sig := d.arena.Alloc()
	sig.Name = inst.Path + "." + name
	sig.Kind, sig.Width, sig.MSB, sig.LSB = sp.kind, sp.width, sp.msb, sp.lsb
	sig.Val = sp.init
	sig.Prev = sp.init.Clone()
	inst.Signals[name] = sig
	return nil
}

// elabInstance instantiates entity ent (with its architecture) as path:
// generics, then signals and constants in declaration order (ports
// first), then processes, concurrent assignments and children in
// statement order. pos is the instantiation statement (the entity
// declaration for the top), where bound and architecture errors point.
func (d *Design) elabInstance(parent *Instance, ent *vhdl.Entity, path string, genOverrides map[string]hdl.Vector, pos lex.Pos) (*Instance, error) {
	if d.instances++; d.instances > sim.MaxInstances {
		return nil, sim.ElabErrf(pos, "design exceeds %d instances", sim.MaxInstances)
	}
	depth := 0
	for p := parent; p != nil; p = p.Parent {
		depth++
	}
	if depth > sim.MaxDepth {
		return nil, sim.ElabErrf(pos, "instantiation depth exceeds %d", sim.MaxDepth)
	}
	arch, ok := d.archs[ent.Name]
	if !ok {
		return nil, sim.ElabErrf(pos, "entity %q has no architecture", ent.Name)
	}
	inst := d.insts.Alloc()
	inst.Path, inst.Entity, inst.Arch, inst.Parent = path, ent, arch, parent
	// The generics map is built lazily — most entities have no
	// generics, and nil lookups behave like an empty valuation.
	for _, g := range ent.Generics {
		if inst.Generics == nil {
			inst.Generics = map[string]hdl.Vector{}
		}
		if ov, has := genOverrides[g.Name]; has {
			inst.Generics[g.Name] = ov
			continue
		}
		if g.Default == nil {
			return nil, sim.ElabErrf(g.Pos, "generic %q has no value", g.Name)
		}
		v, err := inst.evalConst(g.Default)
		if err != nil {
			return nil, err
		}
		inst.Generics[g.Name] = v
	}

	inst.Signals = d.sigMaps.Get(len(ent.Ports))
	for _, p := range ent.Ports {
		if err := d.newSignal(inst, p.Name, p.Type, nil); err != nil {
			return nil, err
		}
	}
	for _, dec := range arch.Decls {
		switch x := dec.(type) {
		case *vhdl.SignalDecl:
			for _, nm := range x.Names {
				if err := d.newSignal(inst, nm, x.Type, x.Init); err != nil {
					return nil, err
				}
			}
		case *vhdl.ConstDecl:
			v, err := inst.evalConst(x.Value)
			if err != nil {
				return nil, err
			}
			if inst.Generics == nil {
				inst.Generics = map[string]hdl.Vector{}
			}
			inst.Generics[x.Name] = v // constants live with generics
		}
	}

	// Statements in order; child entities resolve against the design's
	// unit set.
	for _, cs := range arch.Stmts {
		switch x := cs.(type) {
		case *vhdl.ProcessStmt:
			d.processes = append(d.processes, boundProcess{scope: inst, ps: x})
		case *vhdl.ConcAssign:
			d.concAssigns = append(d.concAssigns, boundConc{scope: inst, ca: x})
		case *vhdl.InstanceStmt:
			if err := d.elabChild(inst, x); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

func (d *Design) elabChild(parent *Instance, x *vhdl.InstanceStmt) error {
	ent, ok := d.entities[x.EntityName]
	if !ok {
		return sim.ElabErrf(x.Pos, "entity %q is not defined", x.EntityName)
	}
	var overrides map[string]hdl.Vector
	for i, as := range x.Generics {
		if as.Actual == nil {
			continue
		}
		v, err := parent.evalConst(as.Actual)
		if err != nil {
			return err
		}
		name := as.Formal
		if name == "" {
			if i >= len(ent.Generics) {
				return sim.ElabErrf(as.Pos, "too many generic associations for %q", x.EntityName)
			}
			name = ent.Generics[i].Name
		}
		if overrides == nil {
			overrides = map[string]hdl.Vector{}
		}
		overrides[name] = v
	}
	label := x.Label
	if label == "" {
		label = fmt.Sprintf("u%d", len(parent.Children))
	}
	child, err := d.elabInstance(parent, ent, parent.Path+"."+label, overrides, x.Pos)
	if err != nil {
		return err
	}
	parent.Children = append(parent.Children, child)

	for i, as := range x.Ports {
		if as.Actual == nil {
			continue
		}
		name := as.Formal
		if name == "" {
			if i >= len(ent.Ports) {
				return sim.ElabErrf(as.Pos, "too many port associations for %q", x.EntityName)
			}
			name = ent.Ports[i].Name
		}
		var dir vhdl.PortDir
		found := false
		for _, p := range ent.Ports {
			if p.Name == name {
				dir, found = p.Dir, true
				break
			}
		}
		if !found {
			return sim.ElabErrf(as.Pos, "entity %q has no port %q", x.EntityName, name)
		}
		if dir == vhdl.DirInout {
			return sim.ElabErrf(as.Pos, "inout ports are not supported by this simulator subset")
		}
		d.portBinds = append(d.portBinds, portBind{
			childScope: child, parentScope: parent,
			portName: name, dir: dir, actual: as.Actual,
		})
	}
	return nil
}

// sigSpec is one signal or variable declaration's resolved type; init
// is the elaborated initial value.
type sigSpec struct {
	kind  SigKind
	width int
	msb   int
	lsb   int
	init  hdl.Vector
}

// makeSigSpec resolves one declaration to a spec, evaluating range
// bounds and initializers against the instance generics. An
// initializer that does not evaluate leaves the type's default value.
func (inst *Instance) makeSigSpec(name string, tr vhdl.TypeRef, init vhdl.Expr) (sigSpec, error) {
	var sp sigSpec
	switch tr.Name {
	case "std_logic", "std_ulogic", "bit":
		sp.kind, sp.width = KindLogic, 1
	case "boolean":
		sp.kind, sp.width = KindBool, 1
	case "integer", "natural", "positive", "time":
		sp.kind, sp.width = KindInt, 32
		sp.msb, sp.lsb = 31, 0
	case "std_logic_vector", "unsigned", "signed", "bit_vector":
		sp.kind = KindVector
		if !tr.HasRange {
			return sigSpec{}, sim.ElabErrf(tr.Pos, "type %s requires a range", tr.Name)
		}
		lv, err := inst.evalConst(tr.Left)
		if err != nil {
			return sigSpec{}, err
		}
		rv, err := inst.evalConst(tr.Right)
		if err != nil {
			return sigSpec{}, err
		}
		l64, ok1 := lv.Int()
		r64, ok2 := rv.Int()
		if !ok1 || !ok2 {
			return sigSpec{}, sim.ElabErrf(tr.Pos, "range bounds of %q are not computable", name)
		}
		left, right := int(l64), int(r64)
		w := left - right
		if w < 0 {
			w = -w
		}
		w++
		if w > 1<<16 {
			return sigSpec{}, sim.ElabErrf(tr.Pos, "vector %q too wide (%d bits)", name, w)
		}
		sp.width = w
		sp.msb, sp.lsb = left, right // MSB<LSB encodes ascending
	default:
		return sigSpec{}, sim.ElabErrf(tr.Pos, "unsupported type %q", tr.Name)
	}
	if sp.kind == KindLogic || sp.kind == KindVector {
		sp.init = hdl.XFill(sp.width)
	} else {
		sp.init = hdl.NewVector(sp.width, hdl.L0)
	}
	if init != nil {
		v, err := inst.evalConstCtx(init, sp.width)
		if err == nil {
			sp.init = v.Resize(sp.width)
		}
	}
	return sp, nil
}

// evalConst evaluates an elaboration-time constant (generics only).
func (inst *Instance) evalConst(e vhdl.Expr) (hdl.Vector, error) {
	return inst.evalConstCtx(e, 0)
}

func (inst *Instance) evalConstCtx(e vhdl.Expr, ctx int) (hdl.Vector, error) {
	switch x := e.(type) {
	case *vhdl.IntLit:
		return hdl.FromInt(x.Value, 32), nil
	case *vhdl.CharLit:
		return hdl.Scalar(x.Value), nil
	case *vhdl.BitStrLit:
		return x.Value.Clone(), nil
	case *vhdl.BoolLit:
		return hdl.FromBool(x.Value), nil
	case *vhdl.Name:
		if v, ok := inst.Generics[x.Ident]; ok {
			return v.Clone(), nil
		}
		return hdl.Vector{}, sim.ElabErrf(x.Pos, "%q is not a constant in this context", x.Ident)
	case *vhdl.UnaryExpr:
		v, err := inst.evalConstCtx(x.X, ctx)
		if err != nil {
			return hdl.Vector{}, err
		}
		switch x.Op {
		case "-":
			return v.Neg(), nil
		case "+":
			return v, nil
		case "not":
			return v.BitwiseNot(), nil
		}
		return hdl.Vector{}, sim.ElabErrf(x.Pos, "unsupported constant operator %q", x.Op)
	case *vhdl.BinaryExpr:
		l, err := inst.evalConstCtx(x.L, ctx)
		if err != nil {
			return hdl.Vector{}, err
		}
		r, err := inst.evalConstCtx(x.R, ctx)
		if err != nil {
			return hdl.Vector{}, err
		}
		// The arithmetic operators, on the operands as they are.
		if f := binaryFns[x.Op]; f.op == sim.HNum && x.Op != "sll" && x.Op != "srl" {
			return f.fn(l, r), nil
		}
		return hdl.Vector{}, sim.ElabErrf(x.Pos, "unsupported constant operator %q", x.Op)
	case *vhdl.AggregateExpr:
		if ctx <= 0 {
			return hdl.Vector{}, sim.ElabErrf(x.Pos, "aggregate needs a sized context")
		}
		v, err := inst.evalConstCtx(x.Others, 1)
		if err != nil {
			return hdl.Vector{}, err
		}
		return hdl.NewVector(ctx, v.Bit(0)), nil
	default:
		return hdl.Vector{}, sim.ElabErrf(e.ExprPos(), "expression is not constant")
	}
}
