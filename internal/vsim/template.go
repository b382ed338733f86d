package vsim

import (
	"strings"

	"repro/internal/hdl"
	"repro/internal/verilog"
)

// This file holds the module templates elaboration replays. A design
// that instantiates one module several times under one parameter
// valuation resolves that module's shape once and replays it per
// instance.
//
// The split is template vs instantiation:
//
//   - A moduleTemplate holds everything about elaborating one module
//     under one parameter valuation that does not depend on the
//     instance path: the resolved signal layout (widths, ranges, kinds,
//     initial values, memory bounds, including the non-ANSI port/decl
//     merge) and an ordered op list (lowered non-constant
//     initializers, continuous assignments, always/initial blocks,
//     child instantiations).
//   - Instantiation replays the template: allocate signals from the
//     design's arena in template order (the d.All / contAssigns /
//     procs append order the VCD writer depends on for byte-identical
//     output), then resolve child modules against the design's module
//     set. Child references stay unresolved in the template (the op
//     stores the *verilog.Instance AST node), which keeps error
//     precedence (missing module before bad override) in source order.
//
// Templates live in a per-Design map keyed by AST pointer + parameter
// fingerprint. A design is elaborated and simulated by one goroutine at
// a time (edatool checks retained designs out exclusively), so the map
// needs no lock.

type tmplKey struct {
	mod    *verilog.Module
	params string
}

// moduleTemplate is the resolved shape of one module under one
// parameter valuation.
type moduleTemplate struct {
	sigs []sigSpec
	ops  []elabOp
}

// sigSpec is one signal's resolved declaration. init is the value the
// signal starts with (X-fill unless a constant initializer resolved);
// vectors are immutable by convention, so instantiations share it.
type sigSpec struct {
	local  string
	width  int
	msb    int
	lsb    int
	kind   verilog.NetKind
	signed bool
	init   hdl.Vector

	isMem bool
	memLo int
	memHi int
}

type opKind uint8

const (
	opAssign opKind = iota
	opAlways
	opInitial
	opChild
)

// elabOp is one replayable elaboration action, in the exact order a
// cold elaboration would have appended its result.
type elabOp struct {
	kind    opKind
	lhs     verilog.Expr
	rhs     verilog.Expr
	always  *verilog.AlwaysBlock
	initial *verilog.InitialBlock
	child   *verilog.Instance
}

// fingerprintParams renders the resolved parameter valuation in
// declaration order. BinString emits exactly width characters per
// value, so widths are encoded implicitly.
func fingerprintParams(m *verilog.Module, params map[string]hdl.Vector) string {
	if len(params) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, it := range m.Items {
		pd, ok := it.(*verilog.ParamDecl)
		if !ok {
			continue
		}
		if v, has := params[pd.Name]; has {
			sb.WriteString(pd.Name)
			sb.WriteByte('=')
			sb.WriteString(v.BinString())
			sb.WriteByte(';')
		}
	}
	return sb.String()
}

// buildTemplate resolves passes 2–4 of elaboration for module m under
// the parameter valuation held by inst (pass 1 runs live in
// elabInstance, since the valuation is part of the template key).
func buildTemplate(m *verilog.Module, inst *Instance) (*moduleTemplate, error) {
	t := &moduleTemplate{}
	index := make(map[string]int, len(m.Ports))

	// Ports become signals.
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
		index[p.Name] = len(t.sigs)
		t.sigs = append(t.sigs, sigSpec{
			local: p.Name, width: w, msb: msb, lsb: lsb,
			kind: kind, signed: p.Signed, init: hdl.XFill(w),
		})
	}

	// Net declarations, with non-constant initializers lowered into the
	// op stream in declaration order (they precede the behavioural
	// items, as in a cold elaboration).
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
			if i, dup := index[n.Name]; dup {
				// Non-ANSI port + body decl merge: adopt kind and range.
				sp := &t.sigs[i]
				sp.kind = nd.Kind
				if nd.Range != nil {
					sp.width, sp.msb, sp.lsb = w, msb, lsb
					sp.init = hdl.XFill(w)
				}
				continue
			}
			sp := sigSpec{
				local: n.Name, width: w, msb: msb, lsb: lsb, kind: nd.Kind,
				signed: nd.Signed || nd.Kind == verilog.KindInteger,
				init:   hdl.XFill(w),
			}
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
				lo, hi := int(lo64), int(hi64)
				if lo > hi {
					lo, hi = hi, lo
				}
				if hi-lo > 1<<20 {
					return nil, elabErrf(n.Pos, "memory %q too large (%d words)", n.Name, hi-lo+1)
				}
				sp.isMem, sp.memLo, sp.memHi = true, lo, hi
			}
			if n.Init != nil && !sp.isMem {
				v, err := inst.evalConst(n.Init)
				if err == nil {
					sp.init = v.Resize(w)
				} else {
					// Non-constant init: lower to a continuous assignment.
					t.ops = append(t.ops, elabOp{
						kind: opAssign,
						lhs:  &verilog.Ident{Name: n.Name, Pos: n.Pos},
						rhs:  n.Init,
					})
				}
			}
			index[n.Name] = len(t.sigs)
			t.sigs = append(t.sigs, sp)
		}
	}

	// Behavioural items and children, in item order.
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.ContAssign:
			t.ops = append(t.ops, elabOp{kind: opAssign, lhs: x.LHS, rhs: x.RHS})
		case *verilog.AlwaysBlock:
			t.ops = append(t.ops, elabOp{kind: opAlways, always: x})
		case *verilog.InitialBlock:
			t.ops = append(t.ops, elabOp{kind: opInitial, initial: x})
		case *verilog.Instance:
			t.ops = append(t.ops, elabOp{kind: opChild, child: x})
		}
	}
	return t, nil
}

// sigArena hands out Signal storage in fixed-capacity chunks so an
// elaboration performs O(signals/chunk) allocations instead of one per
// signal. Chunks are never grown past their capacity, so handed-out
// pointers stay stable; retiring a full chunk just drops the arena's
// reference (the signals keep it alive through the Design).
type sigArena struct {
	chunk []Signal
}

const sigArenaChunk = 256

func (a *sigArena) alloc() *Signal {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]Signal, 0, sigArenaChunk)
	}
	a.chunk = append(a.chunk, Signal{})
	return &a.chunk[len(a.chunk)-1]
}
