// Package vhdlsim elaborates a parsed VHDL design and interprets it on
// the shared event kernel. VHDL semantics differ from Verilog in ways
// this interpreter models faithfully for the supported subset: every
// process runs once at time zero; signal assignments always take effect
// in the next delta (or after an explicit `after` delay); variables
// update immediately and persist across process activations.
package vhdlsim

import (
	"fmt"

	"repro/internal/hdl"
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
	Local string
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

func (s *Signal) declIndexToBit(idx int) (int, bool) {
	if s.MSB >= s.LSB { // downto
		if idx < s.LSB || idx > s.MSB {
			return 0, false
		}
		return idx - s.LSB, true
	}
	if idx < s.MSB || idx > s.LSB { // to
		return 0, false
	}
	return s.LSB - idx, true
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

	// tmpl is the elaboration template this instance was replayed
	// from; the compiled backend caches per-process programs on it.
	tmpl *entityTemplate
}

// Design is the elaborated hierarchy plus bound behaviour.
type Design struct {
	Top      *Instance
	entities map[string]*vhdl.Entity
	archs    map[string]*vhdl.Architecture

	processes   []boundProcess
	concAssigns []boundConc
	portBinds   []portBind

	templates map[tmplKey]*entityTemplate // per-(entity, generics) shapes; see template.go
	arena     sigArena                    // chunked Signal storage

	// Reset-and-rerun state: all lists every signal in elaboration
	// order, initVals their elaborated initial values, and ran marks a
	// design that must be Reset before its next simulation.
	all      []*Signal
	initVals []hdl.Vector
	ran      bool

	// Compiled concurrent-assignment programs, lazily built per design
	// (signal pointers are design-scoped, so the programs survive
	// Reset and re-simulation). concTried is the negative cache.
	concProgs []*vconcProg
	concTried []bool
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

// ElabError is an elaboration failure.
type ElabError struct {
	Pos vhdl.Pos
	Msg string
}

func (e *ElabError) Error() string { return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg) }

func elabErrf(pos vhdl.Pos, format string, args ...any) *ElabError {
	return &ElabError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Elaborate builds the design rooted at the entity named top.
func Elaborate(units []*vhdl.DesignFile, top string) (*Design, error) {
	d := &Design{
		entities:  map[string]*vhdl.Entity{},
		archs:     map[string]*vhdl.Architecture{},
		templates: map[tmplKey]*entityTemplate{},
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
		return nil, fmt.Errorf("top entity %q not found", top)
	}
	inst, err := d.elabInstance(nil, ent, top, nil)
	if err != nil {
		return nil, err
	}
	d.Top = inst
	d.initVals = make([]hdl.Vector, len(d.all))
	for i, sg := range d.all {
		d.initVals[i] = sg.Val
	}
	return d, nil
}

// Reset returns an elaborated design to its time-zero state so it can
// be re-simulated without re-elaborating: values and previous values
// revert to the elaborated initial value, event stamps clear (the
// kernel's delta serial restarts per run), and watcher registrations
// drop (each run registers its own).
func (d *Design) Reset() {
	for i, sg := range d.all {
		sg.Val = d.initVals[i]
		sg.Prev = d.initVals[i].Clone()
		sg.eventStamp = 0
		sg.watch.Reset()
	}
	d.ran = false
}

func (d *Design) elabInstance(parent *Instance, ent *vhdl.Entity, path string, genOverrides map[string]hdl.Vector) (*Instance, error) {
	depth := 0
	for p := parent; p != nil; p = p.Parent {
		depth++
	}
	if depth > 64 {
		return nil, elabErrf(ent.Pos, "instantiation depth exceeds 64")
	}
	arch, ok := d.archs[ent.Name]
	if !ok {
		return nil, elabErrf(ent.Pos, "entity %q has no architecture", ent.Name)
	}
	inst := &Instance{
		Path: path, Entity: ent, Arch: arch,
		Parent: parent,
	}
	// Generics resolve live: the valuation is part of the template
	// key. The map is built lazily — most entities have no
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
			return nil, elabErrf(g.Pos, "generic %q has no value", g.Name)
		}
		v, err := inst.evalConst(g.Default)
		if err != nil {
			return nil, err
		}
		inst.Generics[g.Name] = v
	}

	// Declarations and statements are resolved once per (entity,
	// generic valuation); see template.go. On a hit the instance adopts
	// the template's constant map (generics + architecture constants,
	// read-only after elaboration).
	key := tmplKey{ent: ent, generics: fingerprintGenerics(ent, inst.Generics)}
	tmpl := d.templates[key]
	if tmpl == nil {
		var err error
		tmpl, err = buildTemplate(ent, arch, inst)
		if err != nil {
			return nil, err
		}
		d.templates[key] = tmpl
	} else {
		inst.Generics = tmpl.generics
	}
	inst.tmpl = tmpl

	inst.Signals = make(map[string]*Signal, len(tmpl.sigs))
	for i := range tmpl.sigs {
		sp := &tmpl.sigs[i]
		sig := d.arena.alloc()
		sig.Name = path + "." + sp.local
		sig.Local = sp.local
		sig.Kind, sig.Width, sig.MSB, sig.LSB = sp.kind, sp.width, sp.msb, sp.lsb
		sig.Val = sp.init
		sig.Prev = sp.init.Clone()
		inst.Signals[sp.local] = sig
		d.all = append(d.all, sig)
	}

	for i := range tmpl.ops {
		op := &tmpl.ops[i]
		switch op.kind {
		case opProcess:
			d.processes = append(d.processes, boundProcess{scope: inst, ps: op.ps})
		case opConc:
			d.concAssigns = append(d.concAssigns, boundConc{scope: inst, ca: op.ca})
		case opChild:
			// Child entities resolve against the design's unit set.
			if err := d.elabChild(inst, op.child); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

func (d *Design) elabChild(parent *Instance, x *vhdl.InstanceStmt) error {
	ent, ok := d.entities[x.EntityName]
	if !ok {
		return elabErrf(x.Pos, "entity %q is not defined", x.EntityName)
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
				return elabErrf(as.Pos, "too many generic associations for %q", x.EntityName)
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
	child, err := d.elabInstance(parent, ent, parent.Path+"."+label, overrides)
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
				return elabErrf(as.Pos, "too many port associations for %q", x.EntityName)
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
			return elabErrf(as.Pos, "entity %q has no port %q", x.EntityName, name)
		}
		if dir == vhdl.DirInout {
			return elabErrf(as.Pos, "inout ports are not supported by this simulator subset")
		}
		d.portBinds = append(d.portBinds, portBind{
			childScope: child, parentScope: parent,
			portName: name, dir: dir, actual: as.Actual,
		})
	}
	return nil
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
		return hdl.Vector{}, elabErrf(x.Pos, "%q is not a constant in this context", x.Ident)
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
		return hdl.Vector{}, elabErrf(x.Pos, "unsupported constant operator %q", x.Op)
	case *vhdl.BinaryExpr:
		l, err := inst.evalConstCtx(x.L, ctx)
		if err != nil {
			return hdl.Vector{}, err
		}
		r, err := inst.evalConstCtx(x.R, ctx)
		if err != nil {
			return hdl.Vector{}, err
		}
		switch x.Op {
		case "+":
			return l.Add(r), nil
		case "-":
			return l.Sub(r), nil
		case "*":
			return l.Mul(r), nil
		case "/":
			return l.Div(r), nil
		case "mod", "rem":
			return l.Mod(r), nil
		case "**":
			return l.Pow(r), nil
		}
		return hdl.Vector{}, elabErrf(x.Pos, "unsupported constant operator %q", x.Op)
	case *vhdl.AggregateExpr:
		if ctx <= 0 {
			return hdl.Vector{}, elabErrf(x.Pos, "aggregate needs a sized context")
		}
		v, err := inst.evalConstCtx(x.Others, 1)
		if err != nil {
			return hdl.Vector{}, err
		}
		return hdl.NewVector(ctx, v.Bit(0)), nil
	default:
		return hdl.Vector{}, elabErrf(e.ExprPos(), "expression is not constant")
	}
}
