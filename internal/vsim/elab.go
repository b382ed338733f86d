// Package vsim elaborates a parsed Verilog design into a signal/process
// network and interprets it on the sim kernel. It supports the
// synthesisable subset produced by package bench plus the testbench
// constructs (initial blocks, delays, event controls, system tasks)
// needed for self-checking simulation.
package vsim

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/lex"
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
	modules map[string]*verilog.Module
	// implicit continuous assignments created for port connections:
	// each has an owning scope for expression evaluation.
	contAssigns []boundAssign
	procs       []boundProc

	arena     sim.Arena[Signal]        // every signal, in elaboration order
	insts     sim.Arena[Instance]      // chunked Instance storage
	idents    sim.Arena[verilog.Ident] // port references and initializer targets of contAssigns
	sigMaps   sim.Maps[string, *Signal]
	assoc     map[string]verilog.Expr // elabChild's port association, empty between calls
	instances int                     // elaborated so far, bounded by sim.MaxInstances
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

// Elaborate builds the design rooted at top from the given module set.
// The Design belongs to the caller and is never recycled, so it stays
// readable after SimulateDesign has run it.
func Elaborate(modules map[string]*verilog.Module, top string) (*Design, error) {
	d := &Design{}
	if err := d.elaborate(modules, top); err != nil {
		return nil, err
	}
	return d, nil
}

// elaborate builds the design rooted at top into a new or reset d.
func (d *Design) elaborate(modules map[string]*verilog.Module, top string) error {
	m, ok := modules[top]
	if !ok {
		return fmt.Errorf("top module %q not found", top)
	}
	d.modules = modules
	inst, err := d.elabInstance(nil, m, top, nil, lex.Pos{})
	if err != nil {
		return err
	}
	d.Top = inst
	return nil
}

// reset empties d for the next elaboration into it, keeping its
// storage: the arenas and binding slices are cleared up to what the
// last elaboration filled, and the instance maps emptied, so d keeps
// no pointer into the module set it was built from.
func (d *Design) reset() {
	clear(d.contAssigns)
	clear(d.procs)
	d.arena.Reset()
	d.insts.Reset()
	d.idents.Reset()
	d.sigMaps.Reset()
	*d = Design{
		contAssigns: d.contAssigns[:0],
		procs:       d.procs[:0],
		arena:       d.arena,
		insts:       d.insts,
		idents:      d.idents,
		sigMaps:     d.sigMaps,
		assoc:       d.assoc,
	}
}

// ident returns a reference to name at pos, carved from the design's
// storage.
func (d *Design) ident(name string, pos lex.Pos) *verilog.Ident {
	id := d.idents.Alloc()
	id.Name, id.Pos = name, pos
	return id
}

// newSignal allocates local as a signal of inst, X-filled. The arena
// holds the design's signals in allocation order, the order the VCD
// writer numbers identifiers in.
func (d *Design) newSignal(inst *Instance, local string, width, msb, lsb int, kind verilog.NetKind, signed bool) *Signal {
	sig := d.arena.Alloc()
	sig.Name = inst.Path + "." + local
	sig.Local = local
	sig.Width, sig.MSB, sig.LSB = width, msb, lsb
	sig.Kind, sig.Signed = kind, signed
	sig.Val = hdl.XFill(width)
	inst.Signals[local] = sig
	return sig
}

// elabInstance instantiates module m as path, with parameter overrides:
// parameters, then signals (ports, then net declarations), then
// continuous assignments, processes and children in item order.
func (d *Design) elabInstance(parent *Instance, m *verilog.Module, path string, paramOverrides map[string]hdl.Vector, pos lex.Pos) (*Instance, error) {
	if d.instances++; d.instances > sim.MaxInstances {
		return nil, sim.ElabErrf(pos, "design exceeds %d instances", sim.MaxInstances)
	}
	if parent != nil {
		depth := 0
		for p := parent; p != nil; p = p.Parent {
			depth++
		}
		if depth > sim.MaxDepth {
			return nil, sim.ElabErrf(pos, "instantiation depth exceeds %d (recursive instantiation of %q?)", sim.MaxDepth, m.Name)
		}
	}
	inst := d.insts.Alloc()
	inst.Path, inst.Module, inst.Parent = path, m, parent

	// Parameters, in declaration order (later ones may use earlier
	// ones). The map is built lazily — most modules have no parameters,
	// and nil lookups behave like an empty valuation.
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
			return nil, sim.ElabErrf(pd.Pos, "parameter %q has no value", pd.Name)
		}
		v, err := inst.evalConst(pd.Value)
		if err != nil {
			return nil, err
		}
		inst.Params[pd.Name] = v
	}

	// Ports become signals.
	inst.Signals = d.sigMaps.Get(len(m.Ports))
	for _, p := range m.Ports {
		w, msb, lsb := 1, 0, 0
		if p.Range != nil {
			var err error
			w, msb, lsb, err = inst.evalRange(p.Range)
			if err != nil {
				return nil, err
			}
		}
		kind := verilog.KindWire
		if p.IsReg {
			kind = verilog.KindReg
		}
		d.newSignal(inst, p.Name, w, msb, lsb, kind, p.Signed)
	}

	// Net declarations. Non-constant initializers become continuous
	// assignments here, ahead of the module's own.
	for _, it := range m.Items {
		nd, ok := it.(*verilog.NetDecl)
		if !ok {
			continue
		}
		w, msb, lsb := 1, 0, 0
		if nd.Kind == verilog.KindInteger {
			w, msb, lsb = 32, 31, 0
		}
		if nd.Range != nil {
			var err error
			w, msb, lsb, err = inst.evalRange(nd.Range)
			if err != nil {
				return nil, err
			}
		}
		for _, n := range nd.Names {
			if sig, dup := inst.Signals[n.Name]; dup {
				// Non-ANSI port + body decl merge: adopt kind and range.
				sig.Kind = nd.Kind
				if nd.Range != nil {
					sig.Width, sig.MSB, sig.LSB = w, msb, lsb
					sig.Val = hdl.XFill(w)
				}
				continue
			}
			var lo, hi int
			if n.Array != nil {
				loV, err1 := inst.evalConst(n.Array.MSB)
				hiV, err2 := inst.evalConst(n.Array.LSB)
				if err1 != nil {
					return nil, err1
				}
				if err2 != nil {
					return nil, err2
				}
				lo64, _ := loV.Uint()
				hi64, _ := hiV.Uint()
				lo, hi = int(lo64), int(hi64)
				if lo > hi {
					lo, hi = hi, lo
				}
				if hi-lo > 1<<20 {
					return nil, sim.ElabErrf(n.Pos, "memory %q too large (%d words)", n.Name, hi-lo+1)
				}
			}
			sig := d.newSignal(inst, n.Name, w, msb, lsb, nd.Kind, nd.Signed || nd.Kind == verilog.KindInteger)
			if n.Array != nil {
				sig.IsMem, sig.MemLo, sig.MemHi = true, lo, hi
				sig.Mem = map[int]hdl.Vector{}
			} else if n.Init != nil {
				if v, err := inst.evalConst(n.Init); err == nil {
					sig.Val = v.Resize(w)
				} else {
					d.contAssigns = append(d.contAssigns, boundAssign{
						lhsScope: inst, rhsScope: inst,
						lhs: d.ident(n.Name, n.Pos), rhs: n.Init,
					})
				}
			}
		}
	}

	// Behavioural items and children, in item order. Child modules
	// resolve against the design's module set.
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.ContAssign:
			d.contAssigns = append(d.contAssigns, boundAssign{lhsScope: inst, rhsScope: inst, lhs: x.LHS, rhs: x.RHS})
		case *verilog.AlwaysBlock:
			d.procs = append(d.procs, boundProc{scope: inst, always: x})
		case *verilog.InitialBlock:
			d.procs = append(d.procs, boundProc{scope: inst, initial: x})
		case *verilog.Instance:
			if err := d.elabChild(inst, x); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

func (d *Design) elabChild(parent *Instance, x *verilog.Instance) error {
	childMod, ok := d.modules[x.ModuleName]
	if !ok {
		return sim.ElabErrf(x.Pos, "module %q is not defined", x.ModuleName)
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
	if d.assoc == nil {
		d.assoc = map[string]verilog.Expr{}
	}
	assoc := d.assoc
	defer clear(assoc)
	if len(x.Conns) > 0 && x.Conns[0].Name == "" {
		// Ordered connections.
		if len(x.Conns) > len(childMod.Ports) {
			return sim.ElabErrf(x.Pos, "instance %q has %d connections for %d ports", x.InstName, len(x.Conns), len(childMod.Ports))
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
				return sim.ElabErrf(c.Pos, "module %q has no port %q", x.ModuleName, c.Name)
			}
			assoc[c.Name] = c.Expr
		}
	}
	for _, p := range childMod.Ports {
		ex, connected := assoc[p.Name]
		if !connected || ex == nil {
			continue // unconnected: stays X
		}
		portRef := d.ident(p.Name, x.Pos)
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
			return sim.ElabErrf(x.Pos, "inout ports are not supported by this simulator subset")
		}
	}
	return nil
}
