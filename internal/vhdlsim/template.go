package vhdlsim

import (
	"strings"

	"repro/internal/hdl"
	"repro/internal/vhdl"
)

// Entity templates, mirroring vsim's module templates (see
// internal/vsim/template.go for the design rationale). A template holds
// everything about elaborating one entity under one generic valuation
// that is independent of the instance path: the resolved constants, the
// signal layout (type dispatch, range bounds, initial values), and the
// ordered statement list. Instantiation replays the template and
// resolves child entities against the design's unit set.
//
// Templates live in a per-Design map keyed by entity AST pointer +
// generic fingerprint (an entity's architecture is fixed within one
// design: the last one in the unit set), and host the compiled process
// programs, so same-key instances of one design share them. A design
// is simulated by one run at a time, so nothing here needs a lock.

type tmplKey struct {
	ent      *vhdl.Entity
	generics string
}

// entityTemplate is the resolved shape of one entity (with its
// architecture) under one generic valuation.
type entityTemplate struct {
	// generics is the complete elaboration-scope constant map —
	// entity generics plus architecture constants. It is read-only
	// after elaboration, so all instances of the template share it.
	generics map[string]hdl.Vector
	sigs     []sigSpec
	ops      []elabOp

	// Compiled two-state programs, one per process, built on first
	// demand (see compile.go). Programs address signals by local-name
	// slot and bake generic values as constants — both functions of the
	// template key — so every instance of this template shares one
	// program. A nil map entry is the negative cache.
	progs map[*vhdl.ProcessStmt]*vprocProg
}

// sigSpec is one signal's resolved declaration; init is the elaborated
// initial value (instances share it — vectors are immutable by
// convention).
type sigSpec struct {
	local string
	kind  SigKind
	width int
	msb   int
	lsb   int
	init  hdl.Vector
}

type opKind uint8

const (
	opProcess opKind = iota
	opConc
	opChild
)

// elabOp is one replayable concurrent statement, in architecture
// statement order.
type elabOp struct {
	kind  opKind
	ps    *vhdl.ProcessStmt
	ca    *vhdl.ConcAssign
	child *vhdl.InstanceStmt
}

// fingerprintGenerics renders the resolved generic valuation in
// declaration order (BinString encodes width implicitly).
func fingerprintGenerics(ent *vhdl.Entity, generics map[string]hdl.Vector) string {
	if len(generics) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, g := range ent.Generics {
		if v, has := generics[g.Name]; has {
			sb.WriteString(g.Name)
			sb.WriteByte('=')
			sb.WriteString(v.BinString())
			sb.WriteByte(';')
		}
	}
	return sb.String()
}

// buildTemplate resolves the declaration and statement parts of arch
// for inst's generic valuation. inst.Generics grows with the
// architecture's constants exactly as in a cold elaboration (constants
// become visible to later declarations in order); the finished map is
// captured by the template and shared with future instances.
func buildTemplate(ent *vhdl.Entity, arch *vhdl.Architecture, inst *Instance) (*entityTemplate, error) {
	t := &entityTemplate{}
	for _, p := range ent.Ports {
		sp, err := inst.makeSigSpec(p.Name, p.Type, nil)
		if err != nil {
			return nil, err
		}
		t.sigs = append(t.sigs, sp)
	}
	for _, dec := range arch.Decls {
		switch x := dec.(type) {
		case *vhdl.SignalDecl:
			for _, nm := range x.Names {
				sp, err := inst.makeSigSpec(nm, x.Type, x.Init)
				if err != nil {
					return nil, err
				}
				t.sigs = append(t.sigs, sp)
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
	for _, cs := range arch.Stmts {
		switch x := cs.(type) {
		case *vhdl.ProcessStmt:
			t.ops = append(t.ops, elabOp{kind: opProcess, ps: x})
		case *vhdl.ConcAssign:
			t.ops = append(t.ops, elabOp{kind: opConc, ca: x})
		case *vhdl.InstanceStmt:
			t.ops = append(t.ops, elabOp{kind: opChild, child: x})
		}
	}
	t.generics = inst.Generics
	return t, nil
}

// makeSigSpec resolves one signal declaration to a spec, evaluating
// range bounds and initializers against the instance generics. The
// type dispatch and silent-initializer-error semantics match the
// original makeSignal exactly.
func (inst *Instance) makeSigSpec(name string, tr vhdl.TypeRef, init vhdl.Expr) (sigSpec, error) {
	sp := sigSpec{local: name}
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
			return sigSpec{}, elabErrf(tr.Pos, "type %s requires a range", tr.Name)
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
			return sigSpec{}, elabErrf(tr.Pos, "range bounds of %q are not computable", name)
		}
		left, right := int(l64), int(r64)
		w := left - right
		if w < 0 {
			w = -w
		}
		w++
		if w > 1<<16 {
			return sigSpec{}, elabErrf(tr.Pos, "vector %q too wide (%d bits)", name, w)
		}
		sp.width = w
		sp.msb, sp.lsb = left, right // MSB<LSB encodes ascending
	default:
		return sigSpec{}, elabErrf(tr.Pos, "unsupported type %q", tr.Name)
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

// sigArena hands out Signal storage in fixed-capacity chunks (see
// vsim.sigArena); pointers stay stable because a chunk is never grown
// past its capacity.
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
