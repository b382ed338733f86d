package verilog

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/lex"
)

// symbol describes one declared name inside a module.
type symbol struct {
	kind    NetKind
	isPort  bool
	dir     PortDir
	isParam bool
	hasMem  bool
	pos     lex.Pos
}

// Check performs semantic analysis over every module in sf. Known module
// names from other compilation units (e.g. the DUT when compiling a
// testbench) may be supplied via extern. It returns all diagnostics.
func Check(file string, sf *SourceFile, extern map[string]*Module) diag.List {
	var diags diag.List
	mods := map[string]*Module{}
	for k, v := range extern {
		mods[k] = v
	}
	for _, m := range sf.Modules {
		if prev, dup := mods[m.Name]; dup && prev != m {
			diags.Errorf("VRFC 10-5", file, int(m.Pos.Line), int(m.Pos.Col),
				"module %q is already defined", m.Name)
		}
		mods[m.Name] = m
	}
	for _, m := range sf.Modules {
		checkModule(file, m, mods, &diags)
	}
	return diags
}

func checkModule(file string, m *Module, mods map[string]*Module, diags *diag.List) {
	syms := map[string]*symbol{}
	declare := func(name string, s *symbol) {
		if prev, dup := syms[name]; dup {
			// A port redeclared by a body `reg`/`wire` decl is legal
			// non-ANSI style: merge instead of erroring.
			if prev.isPort && !s.isPort {
				prev.kind = s.kind
				return
			}
			diags.Errorf("VRFC 10-5", file, int(s.pos.Line), int(s.pos.Col),
				"%q is already declared in module %q", name, m.Name)
			return
		}
		syms[name] = s
	}
	for _, p := range m.Ports {
		kind := KindWire
		if p.IsReg {
			kind = KindReg
		}
		declare(p.Name, &symbol{kind: kind, isPort: true, dir: p.Dir, pos: p.Pos})
	}
	for _, it := range m.Items {
		switch d := it.(type) {
		case *NetDecl:
			for _, n := range d.Names {
				declare(n.Name, &symbol{kind: d.Kind, hasMem: n.Array != nil, pos: n.Pos})
			}
		case *ParamDecl:
			declare(d.Name, &symbol{isParam: true, pos: d.Pos})
		}
	}

	useExpr := func(e Expr) { checkExprUses(file, m.Name, e, syms, diags) }

	for _, it := range m.Items {
		switch d := it.(type) {
		case *NetDecl:
			if d.Range != nil {
				useExpr(d.Range.MSB)
				useExpr(d.Range.LSB)
			}
			for _, n := range d.Names {
				if n.Init != nil {
					useExpr(n.Init)
				}
			}
		case *ParamDecl:
			if d.Value != nil {
				useExpr(d.Value)
			}
		case *ContAssign:
			useExpr(d.LHS)
			useExpr(d.RHS)
			checkAssignTarget(file, m.Name, d.LHS, syms, diags, false, d.Pos)
		case *AlwaysBlock:
			if d.Sens == nil {
				// Legal only when the body advances time (always #5 ...).
				if !stmtHasDelay(d.Body) {
					diags.Errorf("VRFC 10-6", file, int(d.Pos.Line), int(d.Pos.Col),
						"'always' block without a sensitivity list or delay would loop forever")
				}
			} else {
				for _, s := range d.Sens.Items {
					useExpr(s.Sig)
				}
			}
			checkStmt(file, m.Name, d.Body, syms, diags, true)
		case *InitialBlock:
			checkStmt(file, m.Name, d.Body, syms, diags, true)
		case *Instance:
			checkInstance(file, m.Name, d, syms, mods, diags)
		}
	}
}

func checkInstance(file, modName string, inst *Instance, syms map[string]*symbol, mods map[string]*Module, diags *diag.List) {
	target, known := mods[inst.ModuleName]
	if !known {
		diags.Errorf("VRFC 10-7", file, int(inst.Pos.Line), int(inst.Pos.Col),
			"module %q referenced by instance %q is not defined", inst.ModuleName, inst.InstName)
	}
	for _, c := range inst.Conns {
		if c.Expr != nil {
			checkExprUses(file, modName, c.Expr, syms, diags)
		}
		if known && c.Name != "" {
			found := false
			for _, p := range target.Ports {
				if p.Name == c.Name {
					found = true
					break
				}
			}
			if !found {
				diags.Errorf("VRFC 10-8", file, int(c.Pos.Line), int(c.Pos.Col),
					"port %q does not exist on module %q", c.Name, inst.ModuleName)
			}
		}
	}
	if known && len(inst.Conns) > 0 && inst.Conns[0].Name == "" && len(inst.Conns) > len(target.Ports) {
		diags.Errorf("VRFC 10-8", file, int(inst.Pos.Line), int(inst.Pos.Col),
			"instance %q supplies %d connections but module %q has %d ports",
			inst.InstName, len(inst.Conns), inst.ModuleName, len(target.Ports))
	}
}

// stmtHasDelay reports whether a statement contains a #delay or event
// wait anywhere, which makes a sensitivity-less always block legal.
func stmtHasDelay(s Stmt) bool {
	switch st := s.(type) {
	case *DelayStmt, *EventWait, *WaitStmt:
		return true
	case *Block:
		for _, inner := range st.Stmts {
			if stmtHasDelay(inner) {
				return true
			}
		}
	case *If:
		if stmtHasDelay(st.Then) {
			return true
		}
		if st.Else != nil && stmtHasDelay(st.Else) {
			return true
		}
	case *For:
		return stmtHasDelay(st.Body)
	case *While:
		return stmtHasDelay(st.Body)
	case *Repeat:
		return stmtHasDelay(st.Body)
	case *Forever:
		return stmtHasDelay(st.Body)
	}
	return false
}

func checkStmt(file, modName string, s Stmt, syms map[string]*symbol, diags *diag.List, procedural bool) {
	use := func(e Expr) { checkExprUses(file, modName, e, syms, diags) }
	switch st := s.(type) {
	case *Block:
		for _, inner := range st.Stmts {
			checkStmt(file, modName, inner, syms, diags, procedural)
		}
	case *If:
		use(st.Cond)
		checkStmt(file, modName, st.Then, syms, diags, procedural)
		if st.Else != nil {
			checkStmt(file, modName, st.Else, syms, diags, procedural)
		}
	case *Case:
		use(st.Expr)
		for _, item := range st.Items {
			for _, e := range item.Exprs {
				use(e)
			}
			checkStmt(file, modName, item.Body, syms, diags, procedural)
		}
	case *For:
		checkStmt(file, modName, st.Init, syms, diags, procedural)
		use(st.Cond)
		checkStmt(file, modName, st.Step, syms, diags, procedural)
		checkStmt(file, modName, st.Body, syms, diags, procedural)
	case *While:
		use(st.Cond)
		checkStmt(file, modName, st.Body, syms, diags, procedural)
	case *Repeat:
		use(st.Count)
		checkStmt(file, modName, st.Body, syms, diags, procedural)
	case *Forever:
		checkStmt(file, modName, st.Body, syms, diags, procedural)
	case *Assign:
		use(st.LHS)
		use(st.RHS)
		checkAssignTarget(file, modName, st.LHS, syms, diags, true, st.Pos)
	case *DelayStmt:
		use(st.Amount)
		checkStmt(file, modName, st.Body, syms, diags, procedural)
	case *EventWait:
		if st.Sens != nil {
			for _, it := range st.Sens.Items {
				use(it.Sig)
			}
		}
		checkStmt(file, modName, st.Body, syms, diags, procedural)
	case *WaitStmt:
		use(st.Cond)
		checkStmt(file, modName, st.Body, syms, diags, procedural)
	case *SysCall:
		for _, a := range st.Args {
			use(a)
		}
	}
}

// checkAssignTarget enforces reg-vs-wire assignment legality.
func checkAssignTarget(file, modName string, lhs Expr, syms map[string]*symbol, diags *diag.List, procedural bool, pos lex.Pos) {
	switch e := lhs.(type) {
	case *Ident:
		sym, ok := syms[e.Name]
		if !ok {
			return // undeclared already reported by checkExprUses
		}
		if sym.isParam {
			diags.Errorf("VRFC 10-9", file, int(e.Pos.Line), int(e.Pos.Col),
				"cannot assign to parameter %q", e.Name)
			return
		}
		if sym.isPort && sym.dir == DirInput {
			diags.Errorf("VRFC 10-10", file, int(e.Pos.Line), int(e.Pos.Col),
				"cannot assign to input port %q", e.Name)
			return
		}
		if procedural && sym.kind == KindWire {
			diags.Errorf("VRFC 10-11", file, int(e.Pos.Line), int(e.Pos.Col),
				"procedural assignment to a non-register %q is not permitted; declare it as 'reg'", e.Name)
		}
		if !procedural && sym.kind == KindReg {
			diags.Errorf("VRFC 10-12", file, int(e.Pos.Line), int(e.Pos.Col),
				"continuous assignment to register %q is not permitted; declare it as 'wire'", e.Name)
		}
	case *Index:
		checkAssignTarget(file, modName, e.Base, syms, diags, procedural, pos)
	case *PartSelect:
		checkAssignTarget(file, modName, e.Base, syms, diags, procedural, pos)
	case *ConcatExpr:
		for _, part := range e.Parts {
			checkAssignTarget(file, modName, part, syms, diags, procedural, pos)
		}
	}
}

// checkExprUses reports references to undeclared identifiers.
func checkExprUses(file, modName string, e Expr, syms map[string]*symbol, diags *diag.List) {
	switch x := e.(type) {
	case *Ident:
		if x.Name == "_err_" {
			return
		}
		if _, ok := syms[x.Name]; !ok {
			diags.Errorf("VRFC 10-91", file, int(x.Pos.Line), int(x.Pos.Col),
				"%s is not declared", fmt.Sprintf("%q", x.Name))
		}
	case *Unary:
		checkExprUses(file, modName, x.X, syms, diags)
	case *Binary:
		checkExprUses(file, modName, x.L, syms, diags)
		checkExprUses(file, modName, x.R, syms, diags)
	case *Ternary:
		checkExprUses(file, modName, x.Cond, syms, diags)
		checkExprUses(file, modName, x.Then, syms, diags)
		checkExprUses(file, modName, x.Else, syms, diags)
	case *ConcatExpr:
		for _, pt := range x.Parts {
			checkExprUses(file, modName, pt, syms, diags)
		}
	case *ReplicateExpr:
		checkExprUses(file, modName, x.Count, syms, diags)
		checkExprUses(file, modName, x.Value, syms, diags)
	case *Index:
		checkExprUses(file, modName, x.Base, syms, diags)
		checkExprUses(file, modName, x.Idx, syms, diags)
	case *PartSelect:
		checkExprUses(file, modName, x.Base, syms, diags)
		checkExprUses(file, modName, x.MSB, syms, diags)
		checkExprUses(file, modName, x.LSB, syms, diags)
	case *SysFuncCall:
		for _, a := range x.Args {
			checkExprUses(file, modName, a, syms, diags)
		}
	}
}
