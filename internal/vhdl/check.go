package vhdl

import "repro/internal/diag"

// vsym is a declared name inside an architecture scope.
type vsym struct {
	isPort   bool
	dir      PortDir
	isConst  bool
	isVar    bool
	typeName string
}

// builtinFuncs are the numeric_std / std_logic_1164 functions the
// simulator implements; references to them are not "undeclared".
var builtinFuncs = map[string]bool{
	"rising_edge": true, "falling_edge": true,
	"to_unsigned": true, "to_signed": true, "to_integer": true,
	"std_logic_vector": true, "unsigned": true, "signed": true,
	"resize": true, "shift_left": true, "shift_right": true,
	"to_01": true, "abs": true, "conv_integer": true, "conv_std_logic_vector": true,
	"integer": true,
}

// Check performs semantic analysis: entity/architecture binding, symbol
// resolution, port existence on instances, and port-mode legality.
// extern supplies entities from other compilation units.
func Check(file string, df *DesignFile, extern map[string]*Entity) diag.List {
	var diags diag.List
	ents := map[string]*Entity{}
	for k, v := range extern {
		ents[k] = v
	}
	for _, e := range df.Entities {
		if _, dup := ents[e.Name]; dup {
			diags.Errorf("VRFC 10-30", file, int(e.Pos.Line), int(e.Pos.Col),
				"entity %q is already defined", e.Name)
		}
		ents[e.Name] = e
	}
	for _, a := range df.Archs {
		ent, ok := ents[a.EntityName]
		if !ok {
			diags.Errorf("VRFC 10-31", file, int(a.Pos.Line), int(a.Pos.Col),
				"architecture %q refers to undefined entity %q", a.Name, a.EntityName)
			continue
		}
		checkArch(file, a, ent, ents, &diags)
	}
	return diags
}

func checkArch(file string, a *Architecture, ent *Entity, ents map[string]*Entity, diags *diag.List) {
	syms := map[string]*vsym{}
	for _, g := range ent.Generics {
		syms[g.Name] = &vsym{isConst: true, typeName: g.Type.Name}
	}
	for _, p := range ent.Ports {
		syms[p.Name] = &vsym{isPort: true, dir: p.Dir, typeName: p.Type.Name}
	}
	for _, d := range a.Decls {
		switch x := d.(type) {
		case *SignalDecl:
			for _, nm := range x.Names {
				if _, dup := syms[nm]; dup {
					diags.Errorf("VRFC 10-32", file, int(x.Pos.Line), int(x.Pos.Col),
						"%q is already declared", nm)
					continue
				}
				syms[nm] = &vsym{typeName: x.Type.Name}
			}
		case *ConstDecl:
			syms[x.Name] = &vsym{isConst: true, typeName: x.Type.Name}
		}
	}
	for _, cs := range a.Stmts {
		switch x := cs.(type) {
		case *ConcAssign:
			checkTarget(file, x.Target, syms, diags, false)
			for _, w := range x.Waves {
				checkExpr(file, w.Value, syms, diags)
				if w.Cond != nil {
					checkExpr(file, w.Cond, syms, diags)
				}
				if w.AfterNs != nil {
					checkExpr(file, w.AfterNs, syms, diags)
				}
			}
		case *ProcessStmt:
			local := map[string]*vsym{}
			for k, v := range syms {
				local[k] = v
			}
			for _, d := range x.Decls {
				switch vd := d.(type) {
				case *VarDecl:
					for _, nm := range vd.Names {
						local[nm] = &vsym{isVar: true, typeName: vd.Type.Name}
					}
				case *ConstDecl:
					local[vd.Name] = &vsym{isConst: true, typeName: vd.Type.Name}
				}
			}
			for _, s := range x.Sens {
				checkExpr(file, s, local, diags)
			}
			checkStmts(file, x.Body, local, diags)
			if len(x.Sens) == 0 && !bodyHasWait(x.Body) {
				diags.Errorf("VRFC 10-33", file, int(x.Pos.Line), int(x.Pos.Col),
					"process has neither a sensitivity list nor a wait statement")
			}
		case *InstanceStmt:
			target, known := ents[x.EntityName]
			if !known {
				diags.Errorf("VRFC 10-34", file, int(x.Pos.Line), int(x.Pos.Col),
					"entity %q referenced by instance %q is not defined", x.EntityName, x.Label)
			}
			for _, as := range x.Ports {
				if as.Actual != nil {
					checkExpr(file, as.Actual, syms, diags)
				}
				if known && as.Formal != "" {
					found := false
					for _, pt := range target.Ports {
						if pt.Name == as.Formal {
							found = true
							break
						}
					}
					if !found {
						diags.Errorf("VRFC 10-35", file, int(as.Pos.Line), int(as.Pos.Col),
							"port %q does not exist on entity %q", as.Formal, x.EntityName)
					}
				}
			}
		}
	}
}

func bodyHasWait(body []Stmt) bool {
	for _, s := range body {
		switch x := s.(type) {
		case *WaitStmt:
			return true
		case *IfStmt:
			for _, b := range x.Branches {
				if bodyHasWait(b.Body) {
					return true
				}
			}
			if bodyHasWait(x.Else) {
				return true
			}
		case *ForStmt:
			if bodyHasWait(x.Body) {
				return true
			}
		case *WhileStmt:
			if bodyHasWait(x.Body) {
				return true
			}
		case *CaseStmt:
			for _, arm := range x.Arms {
				if bodyHasWait(arm.Body) {
					return true
				}
			}
		}
	}
	return false
}

func checkStmts(file string, body []Stmt, syms map[string]*vsym, diags *diag.List) {
	for _, s := range body {
		switch x := s.(type) {
		case *SigAssign:
			checkTarget(file, x.Target, syms, diags, false)
			checkExpr(file, x.Value, syms, diags)
		case *VarAssign:
			checkTarget(file, x.Target, syms, diags, true)
			checkExpr(file, x.Value, syms, diags)
		case *IfStmt:
			for _, b := range x.Branches {
				checkExpr(file, b.Cond, syms, diags)
				checkStmts(file, b.Body, syms, diags)
			}
			checkStmts(file, x.Else, syms, diags)
		case *CaseStmt:
			checkExpr(file, x.Expr, syms, diags)
			for _, arm := range x.Arms {
				for _, c := range arm.Choices {
					checkExpr(file, c, syms, diags)
				}
				checkStmts(file, arm.Body, syms, diags)
			}
		case *ForStmt:
			inner := map[string]*vsym{}
			for k, v := range syms {
				inner[k] = v
			}
			inner[x.Var] = &vsym{isVar: true, typeName: "integer"}
			checkExpr(file, x.Left, inner, diags)
			checkExpr(file, x.Right, inner, diags)
			checkStmts(file, x.Body, inner, diags)
		case *WhileStmt:
			checkExpr(file, x.Cond, syms, diags)
			checkStmts(file, x.Body, syms, diags)
		case *WaitStmt:
			if x.Until != nil {
				checkExpr(file, x.Until, syms, diags)
			}
			for _, sg := range x.OnSignals {
				checkExpr(file, sg, syms, diags)
			}
		case *AssertStmt:
			checkExpr(file, x.Cond, syms, diags)
		case *ExitStmt:
			if x.When != nil {
				checkExpr(file, x.When, syms, diags)
			}
		}
	}
}

func checkTarget(file string, target Expr, syms map[string]*vsym, diags *diag.List, isVar bool) {
	switch x := target.(type) {
	case *Name:
		if x.Ident == "_err_" {
			return
		}
		sym, ok := syms[x.Ident]
		if !ok {
			diags.Errorf("VRFC 10-91", file, int(x.Pos.Line), int(x.Pos.Col),
				"%q is not declared", x.Ident)
			return
		}
		if sym.isPort && sym.dir == DirIn {
			diags.Errorf("VRFC 10-36", file, int(x.Pos.Line), int(x.Pos.Col),
				"cannot assign to input port %q", x.Ident)
		}
		if sym.isConst {
			diags.Errorf("VRFC 10-37", file, int(x.Pos.Line), int(x.Pos.Col),
				"cannot assign to constant %q", x.Ident)
		}
		if isVar && !sym.isVar {
			diags.Errorf("VRFC 10-38", file, int(x.Pos.Line), int(x.Pos.Col),
				"':=' requires a variable; %q is a signal (use '<=')", x.Ident)
		}
		if !isVar && sym.isVar {
			diags.Errorf("VRFC 10-39", file, int(x.Pos.Line), int(x.Pos.Col),
				"'<=' requires a signal; %q is a variable (use ':=')", x.Ident)
		}
	case *CallOrIndex:
		sym, ok := syms[x.Name]
		if !ok {
			diags.Errorf("VRFC 10-91", file, int(x.Pos.Line), int(x.Pos.Col),
				"%q is not declared", x.Name)
			return
		}
		_ = sym
		for _, a := range x.Args {
			checkExpr(file, a, syms, diags)
		}
		if x.IsSlice {
			checkExpr(file, x.Left, syms, diags)
			checkExpr(file, x.Right, syms, diags)
		}
	}
}

func checkExpr(file string, e Expr, syms map[string]*vsym, diags *diag.List) {
	switch x := e.(type) {
	case *Name:
		if x.Ident == "_err_" {
			return
		}
		if _, ok := syms[x.Ident]; !ok {
			diags.Errorf("VRFC 10-91", file, int(x.Pos.Line), int(x.Pos.Col),
				"%q is not declared", x.Ident)
		}
	case *UnaryExpr:
		checkExpr(file, x.X, syms, diags)
	case *BinaryExpr:
		checkExpr(file, x.L, syms, diags)
		checkExpr(file, x.R, syms, diags)
	case *CallOrIndex:
		if _, isSig := syms[x.Name]; !isSig && !builtinFuncs[x.Name] {
			diags.Errorf("VRFC 10-91", file, int(x.Pos.Line), int(x.Pos.Col),
				"%q is not declared", x.Name)
		}
		for _, a := range x.Args {
			checkExpr(file, a, syms, diags)
		}
		if x.IsSlice {
			checkExpr(file, x.Left, syms, diags)
			checkExpr(file, x.Right, syms, diags)
		}
	case *AttrExpr:
		if _, ok := syms[x.Base]; !ok {
			diags.Errorf("VRFC 10-91", file, int(x.Pos.Line), int(x.Pos.Col),
				"%q is not declared", x.Base)
		}
	case *AggregateExpr:
		checkExpr(file, x.Others, syms, diags)
	}
}
