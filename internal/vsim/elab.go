// Package vsim elaborates a parsed Verilog design into a signal/process
// network and interprets it on the sim kernel. It supports the
// synthesisable subset produced by package bench plus the testbench
// constructs (initial blocks, delays, event controls, system tasks)
// needed for self-checking simulation.
package vsim

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// Signal is one elaborated net, register, or memory.
type Signal struct {
	Name   string // hierarchical name, e.g. "tb.dut.count"
	Local  string // name within its module
	Width  int
	MSB    int
	LSB    int
	Kind   verilog.NetKind
	Signed bool // declared signed, or an integer

	Val hdl.Vector

	IsMem bool
	MemLo int
	MemHi int
	Mem   map[int]hdl.Vector

	watch sim.WatchList
}

// declIndexToBit maps a declared index (e.g. 5 in x[5]) to a storage bit
// offset, honouring ascending and descending ranges. ok is false when
// the index is out of the declared range.
func (s *Signal) declIndexToBit(idx int) (int, bool) {
	if s.MSB >= s.LSB {
		if idx < s.LSB || idx > s.MSB {
			return 0, false
		}
		return idx - s.LSB, true
	}
	if idx < s.MSB || idx > s.LSB {
		return 0, false
	}
	return s.LSB - idx, true
}

// MemWord returns memory word idx (X-filled when unwritten or out of range).
func (s *Signal) MemWord(idx int) hdl.Vector {
	if !s.IsMem || idx < s.MemLo || idx > s.MemHi {
		return hdl.XFill(s.Width)
	}
	if w, ok := s.Mem[idx]; ok {
		return w
	}
	return hdl.XFill(s.Width)
}

// Instance is one node of the elaborated hierarchy.
type Instance struct {
	Path     string
	Module   *verilog.Module
	Signals  map[string]*Signal
	Params   map[string]hdl.Vector
	Children []*Instance
	Parent   *Instance
}

// Design is a fully elaborated hierarchy.
type Design struct {
	Top     *Instance
	All     []*Signal
	modules map[string]*verilog.Module
	// implicit continuous assignments created for port connections:
	// each has an owning scope for expression evaluation.
	contAssigns []boundAssign
	procs       []boundProc

	templates map[tmplKey]*moduleTemplate // per-(module, params) shapes; see template.go
	arena     sigArena                    // chunked Signal storage

	// Reset-and-rerun state: initVals snapshots every signal's
	// elaborated initial value (parallel to All), ran marks a design
	// that has been bound to a simulation and must be Reset before the
	// next one.
	initVals []hdl.Vector
	ran      bool
}

// boundAssign is a continuous assignment whose sides may live in
// different scopes (port bindings cross the parent/child boundary).
type boundAssign struct {
	lhsScope *Instance
	rhsScope *Instance
	lhs      verilog.Expr
	rhs      verilog.Expr
}

// boundProc is an always/initial block bound to its instance.
type boundProc struct {
	scope   *Instance
	always  *verilog.AlwaysBlock
	initial *verilog.InitialBlock
}

// ElabError is an elaboration failure (the RTL is structurally unusable).
type ElabError struct {
	Pos verilog.Pos
	Msg string
}

func (e *ElabError) Error() string { return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg) }

func elabErrf(pos verilog.Pos, format string, args ...any) *ElabError {
	return &ElabError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Elaborate builds the design rooted at top from the given module set.
func Elaborate(modules map[string]*verilog.Module, top string) (*Design, error) {
	m, ok := modules[top]
	if !ok {
		return nil, fmt.Errorf("top module %q not found", top)
	}
	d := &Design{modules: modules, templates: map[tmplKey]*moduleTemplate{}}
	inst, err := d.elabInstance(nil, m, top, nil, verilog.Pos{})
	if err != nil {
		return nil, err
	}
	d.Top = inst
	d.initVals = make([]hdl.Vector, len(d.All))
	for i, sg := range d.All {
		d.initVals[i] = sg.Val
	}
	return d, nil
}

// Reset returns an elaborated design to its time-zero state so it can
// be re-simulated without re-elaborating: every signal's value reverts
// to its elaborated initial value, memories empty, and all watcher
// registrations drop (each run registers its own, since they close
// over per-run simulator state).
func (d *Design) Reset() {
	for i, sg := range d.All {
		sg.Val = d.initVals[i]
		if sg.IsMem {
			clear(sg.Mem)
		}
		sg.watch.Reset()
	}
	d.ran = false
}

const maxInstances = 4096

func (d *Design) countInstances(i *Instance) int {
	n := 1
	for _, c := range i.Children {
		n += d.countInstances(c)
	}
	return n
}

// elabInstance instantiates module m as path, with parameter overrides.
func (d *Design) elabInstance(parent *Instance, m *verilog.Module, path string, paramOverrides map[string]hdl.Vector, pos verilog.Pos) (*Instance, error) {
	if parent != nil {
		depth := 0
		for p := parent; p != nil; p = p.Parent {
			depth++
		}
		if depth > 64 {
			return nil, elabErrf(pos, "instantiation depth exceeds 64 (recursive instantiation of %q?)", m.Name)
		}
	}
	inst := &Instance{
		Path:   path,
		Module: m,
		Parent: parent,
	}

	// Pass 1: parameters (in declaration order, allowing dependencies).
	// This runs live because the resolved valuation is part of the
	// template key. The map is built lazily — most modules have no
	// parameters, and nil lookups behave like an empty valuation.
	for _, it := range m.Items {
		pd, ok := it.(*verilog.ParamDecl)
		if !ok {
			continue
		}
		if inst.Params == nil {
			inst.Params = map[string]hdl.Vector{}
		}
		if ov, has := paramOverrides[pd.Name]; has && !pd.IsLocal {
			inst.Params[pd.Name] = ov
			continue
		}
		if pd.Value == nil {
			return nil, elabErrf(pd.Pos, "parameter %q has no value", pd.Name)
		}
		v, err := inst.evalConst(pd.Value)
		if err != nil {
			return nil, err
		}
		inst.Params[pd.Name] = v
	}

	// Passes 2–4 are resolved once per (module, parameter valuation):
	// the template holds the signal layout and an ordered op list (see
	// template.go) that every same-key instance replays.
	key := tmplKey{mod: m, params: fingerprintParams(m, inst.Params)}
	tmpl := d.templates[key]
	if tmpl == nil {
		var err error
		tmpl, err = buildTemplate(m, inst)
		if err != nil {
			return nil, err
		}
		d.templates[key] = tmpl
	}

	inst.Signals = make(map[string]*Signal, len(tmpl.sigs))
	for i := range tmpl.sigs {
		sp := &tmpl.sigs[i]
		sig := d.arena.alloc()
		sig.Name = path + "." + sp.local
		sig.Local = sp.local
		sig.Width, sig.MSB, sig.LSB = sp.width, sp.msb, sp.lsb
		sig.Kind, sig.Signed = sp.kind, sp.signed
		sig.Val = sp.init
		if sp.isMem {
			sig.IsMem, sig.MemLo, sig.MemHi = true, sp.memLo, sp.memHi
			sig.Mem = map[int]hdl.Vector{}
		}
		inst.Signals[sp.local] = sig
		d.All = append(d.All, sig)
	}

	for i := range tmpl.ops {
		op := &tmpl.ops[i]
		switch op.kind {
		case opAssign:
			d.contAssigns = append(d.contAssigns, boundAssign{lhsScope: inst, rhsScope: inst, lhs: op.lhs, rhs: op.rhs})
		case opAlways:
			d.procs = append(d.procs, boundProc{scope: inst, always: op.always})
		case opInitial:
			d.procs = append(d.procs, boundProc{scope: inst, initial: op.initial})
		case opChild:
			// Child modules resolve against the design's module set.
			if err := d.elabChild(inst, op.child); err != nil {
				return nil, err
			}
		}
	}
	if d.Top == nil && d.countInstances(inst) > maxInstances {
		return nil, elabErrf(m.Pos, "design exceeds %d instances", maxInstances)
	}
	return inst, nil
}

func (d *Design) elabChild(parent *Instance, x *verilog.Instance) error {
	childMod, ok := d.modules[x.ModuleName]
	if !ok {
		return elabErrf(x.Pos, "module %q is not defined", x.ModuleName)
	}
	// Parameter overrides (maps built only when overrides exist).
	var overrides map[string]hdl.Vector
	var ordered []hdl.Vector
	for _, pc := range x.Params {
		if pc.Expr == nil {
			continue
		}
		v, err := parent.evalConst(pc.Expr)
		if err != nil {
			return err
		}
		if pc.Name != "" {
			if overrides == nil {
				overrides = map[string]hdl.Vector{}
			}
			overrides[pc.Name] = v
		} else {
			ordered = append(ordered, v)
		}
	}
	if len(ordered) > 0 {
		if overrides == nil {
			overrides = map[string]hdl.Vector{}
		}
		i := 0
		for _, it := range childMod.Items {
			pd, isP := it.(*verilog.ParamDecl)
			if !isP || pd.IsLocal {
				continue
			}
			if i < len(ordered) {
				overrides[pd.Name] = ordered[i]
				i++
			}
		}
	}
	child, err := d.elabInstance(parent, childMod, parent.Path+"."+x.InstName, overrides, x.Pos)
	if err != nil {
		return err
	}
	parent.Children = append(parent.Children, child)

	// Port binding. Build the port->expr association.
	assoc := map[string]verilog.Expr{}
	if len(x.Conns) > 0 && x.Conns[0].Name == "" {
		// Ordered connections.
		if len(x.Conns) > len(childMod.Ports) {
			return elabErrf(x.Pos, "instance %q has %d connections for %d ports", x.InstName, len(x.Conns), len(childMod.Ports))
		}
		for i, c := range x.Conns {
			assoc[childMod.Ports[i].Name] = c.Expr
		}
	} else {
		for _, c := range x.Conns {
			found := false
			for _, p := range childMod.Ports {
				if p.Name == c.Name {
					found = true
					break
				}
			}
			if !found {
				return elabErrf(c.Pos, "module %q has no port %q", x.ModuleName, c.Name)
			}
			assoc[c.Name] = c.Expr
		}
	}
	for _, p := range childMod.Ports {
		ex, connected := assoc[p.Name]
		if !connected || ex == nil {
			continue // unconnected: stays X
		}
		portRef := &verilog.Ident{Name: p.Name, Pos: x.Pos}
		switch p.Dir {
		case verilog.DirInput:
			d.contAssigns = append(d.contAssigns, boundAssign{
				lhsScope: child, rhsScope: parent,
				lhs: portRef, rhs: ex,
			})
		case verilog.DirOutput:
			d.contAssigns = append(d.contAssigns, boundAssign{
				lhsScope: parent, rhsScope: child,
				lhs: ex, rhs: portRef,
			})
		case verilog.DirInout:
			return elabErrf(x.Pos, "inout ports are not supported by this simulator subset")
		}
	}
	return nil
}
