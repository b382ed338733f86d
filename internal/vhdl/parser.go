package vhdl

import (
	"unicode/utf8"

	"repro/internal/diag"
	"repro/internal/hdl"
)

// Parser is a recursive-descent parser for the supported VHDL subset,
// with statement-level error recovery so one pass yields multiple
// diagnostics (the Review Agent relies on complete logs). It pulls
// tokens from a Lexer through a three-token window (peekTok(2) is the
// deepest lookahead, and the parser never backtracks), so no token
// slice is built.
type Parser struct {
	lx    Lexer
	la    [3]Token // lookahead window: la[0] is the current token
	nla   int      // tokens held in la, 1 to 3
	pos   int      // tokens consumed so far
	file  string
	diags diag.List
}

// Parse parses src and returns the design file plus diagnostics.
func Parse(file, src string) (*DesignFile, diag.List) {
	p := &Parser{lx: *NewLexer(src), nla: 1, file: file}
	p.la[0] = p.lx.Next()
	df := &DesignFile{}
	for !p.at(TokEOF) {
		switch {
		case p.atKeyword("library"), p.atKeyword("use"):
			p.syncPast(";")
		case p.atKeyword("entity"):
			if e := p.parseEntity(); e != nil {
				df.Entities = append(df.Entities, e)
			}
		case p.atKeyword("architecture"):
			if a := p.parseArchitecture(); a != nil {
				df.Archs = append(df.Archs, a)
			}
		default:
			p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q; expecting a design unit", p.cur().Text)
			p.advance()
		}
	}
	p.diags.AttachSnippets(src)
	return df, p.diags
}

func (p *Parser) cur() Token { return p.la[0] }

// peekTok returns the token n places past the current one (n <= 2),
// lexing it on demand; past the end it returns the TokEOF token.
func (p *Parser) peekTok(n int) Token {
	for p.nla <= n {
		p.la[p.nla] = p.lx.Next()
		p.nla++
	}
	return p.la[n]
}

// advance consumes and returns the current token. TokEOF is never
// consumed: once reached, it stays current.
func (p *Parser) advance() Token {
	t := p.la[0]
	if t.Kind == TokEOF {
		return t
	}
	p.pos++
	if p.nla > 1 {
		copy(p.la[:], p.la[1:p.nla])
		p.nla--
	} else {
		p.la[0] = p.lx.Next()
	}
	return t
}

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }
func (p *Parser) atOp(op string) bool {
	return p.cur().Kind == TokOp && p.cur().Text == op
}
func (p *Parser) atKeyword(kw string) bool {
	return p.cur().Kind == TokKeyword && p.cur().Text == kw
}
func (p *Parser) acceptOp(op string) bool {
	if p.atOp(op) {
		p.advance()
		return true
	}
	return false
}
func (p *Parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}
func (p *Parser) expectOp(op string) bool {
	if p.acceptOp(op) {
		return true
	}
	p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q; expecting %q", p.cur().Text, op)
	return false
}
func (p *Parser) expectKeyword(kw string) bool {
	if p.acceptKeyword(kw) {
		return true
	}
	p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q; expecting %q", p.cur().Text, kw)
	return false
}
func (p *Parser) expectIdent(what string) (string, Pos, bool) {
	t := p.cur()
	if t.Kind == TokIdent {
		p.advance()
		return t.Text, t.Pos, true
	}
	p.errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting %s", t.Text, what)
	return "", t.Pos, false
}

func (p *Parser) errorf(pos Pos, code, format string, args ...any) {
	p.diags.Errorf(code, p.file, pos.Line, pos.Col, format, args...)
}

// syncPast skips tokens up to and including the given operator.
func (p *Parser) syncPast(op string) {
	for !p.at(TokEOF) {
		if p.atOp(op) {
			p.advance()
			return
		}
		p.advance()
	}
}

// syncToKeyword skips until one of the keywords (not consumed).
func (p *Parser) syncToKeyword(kws ...string) {
	for !p.at(TokEOF) {
		for _, kw := range kws {
			if p.atKeyword(kw) {
				return
			}
		}
		p.advance()
	}
}

// --------------------------------------------------------------- entity

func (p *Parser) parseEntity() *Entity {
	start := p.cur().Pos
	p.expectKeyword("entity")
	name, _, ok := p.expectIdent("entity name")
	if !ok {
		p.syncToKeyword("entity", "architecture")
		return nil
	}
	e := &Entity{Name: name, Pos: start}
	p.expectKeyword("is")
	if p.acceptKeyword("generic") {
		p.expectOp("(")
		p.parseGenerics(e)
		p.expectOp(")")
		p.expectOp(";")
	}
	if p.acceptKeyword("port") {
		p.expectOp("(")
		p.parsePorts(e)
		p.expectOp(")")
		p.expectOp(";")
	}
	p.expectKeyword("end")
	p.acceptKeyword("entity")
	if p.at(TokIdent) {
		rep := p.advance() // optional repeated name must match
		if rep.Text != name {
			p.errorf(rep.Pos, "VRFC 10-23", "name %q at end of entity does not match %q", rep.Text, name)
		}
	}
	p.expectOp(";")
	return e
}

func (p *Parser) parseGenerics(e *Entity) {
	for {
		var names []string
		for {
			nm, _, ok := p.expectIdent("generic name")
			if !ok {
				p.syncPast(")")
				return
			}
			names = append(names, nm)
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(":")
		tr := p.parseTypeRef()
		var def Expr
		if p.acceptOp(":=") {
			def = p.parseExpr()
		}
		for _, nm := range names {
			e.Generics = append(e.Generics, &GenericDecl{Name: nm, Type: tr, Default: def, Pos: tr.Pos})
		}
		if !p.acceptOp(";") {
			return
		}
	}
}

func (p *Parser) parsePorts(e *Entity) {
	for {
		var names []string
		var pos Pos
		for {
			t := p.cur()
			nm, npos, ok := p.expectIdent("port name")
			if !ok {
				_ = t
				p.syncPast(")")
				return
			}
			if len(names) == 0 {
				pos = npos
			}
			names = append(names, nm)
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(":")
		dir := DirIn
		switch {
		case p.acceptKeyword("in"):
			dir = DirIn
		case p.acceptKeyword("out"):
			dir = DirOut
		case p.acceptKeyword("inout"), p.acceptKeyword("buffer"):
			dir = DirInout
		default:
			p.errorf(p.cur().Pos, "VRFC 10-20", "port %q missing mode (in/out/inout)", names[0])
		}
		tr := p.parseTypeRef()
		for _, nm := range names {
			e.Ports = append(e.Ports, &PortDecl{Name: nm, Dir: dir, Type: tr, Pos: pos})
		}
		if !p.acceptOp(";") {
			return
		}
	}
}

// parseTypeRef parses std_logic, std_logic_vector(7 downto 0), integer,
// integer range a to b, unsigned(...), boolean, time.
func (p *Parser) parseTypeRef() TypeRef {
	t := p.cur()
	tr := TypeRef{Pos: t.Pos}
	switch {
	case t.Kind == TokIdent:
		tr.Name = t.Text
		p.advance()
	case t.Kind == TokKeyword && (t.Text == "integer" || t.Text == "boolean" ||
		t.Text == "natural" || t.Text == "positive" || t.Text == "time" || t.Text == "string"):
		tr.Name = t.Text
		p.advance()
	default:
		p.errorf(t.Pos, "VRFC 10-21", "syntax error near %q; expecting a type mark", t.Text)
		p.advance()
		return tr
	}
	if p.acceptKeyword("range") { // integer range 0 to 15: parse and discard bounds
		p.parseExpr()
		if p.acceptKeyword("to") || p.acceptKeyword("downto") {
			p.parseExpr()
		}
		return tr
	}
	if p.atOp("(") {
		p.advance()
		tr.HasRange = true
		tr.Left = p.parseExpr()
		switch {
		case p.acceptKeyword("downto"):
			tr.Descending = true
		case p.acceptKeyword("to"):
			tr.Descending = false
		default:
			p.errorf(p.cur().Pos, "VRFC 10-21", "syntax error near %q; expecting 'downto' or 'to'", p.cur().Text)
		}
		tr.Right = p.parseExpr()
		p.expectOp(")")
	}
	return tr
}

// --------------------------------------------------------- architecture

func (p *Parser) parseArchitecture() *Architecture {
	start := p.cur().Pos
	p.expectKeyword("architecture")
	name, _, ok := p.expectIdent("architecture name")
	if !ok {
		p.syncToKeyword("entity", "architecture")
		return nil
	}
	p.expectKeyword("of")
	entName, _, ok := p.expectIdent("entity name")
	if !ok {
		p.syncToKeyword("entity", "architecture")
		return nil
	}
	a := &Architecture{Name: name, EntityName: entName, Pos: start}
	p.expectKeyword("is")
	// Declarative region.
	for !p.atKeyword("begin") && !p.at(TokEOF) {
		before := p.pos
		p.parseArchDecl(a)
		if p.pos == before {
			p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q in declarations", p.cur().Text)
			p.advance()
		}
	}
	p.expectKeyword("begin")
	for !p.atKeyword("end") && !p.at(TokEOF) {
		before := p.pos
		if st := p.parseConcStmt(); st != nil {
			a.Stmts = append(a.Stmts, st)
		}
		if p.pos == before {
			p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q in architecture body", p.cur().Text)
			p.advance()
		}
	}
	if !p.acceptKeyword("end") {
		p.errorf(start, "VRFC 10-2", "architecture %q missing 'end'", name)
	}
	p.acceptKeyword("architecture")
	if p.at(TokIdent) {
		rep := p.advance()
		if rep.Text != name {
			p.errorf(rep.Pos, "VRFC 10-23", "name %q at end of architecture does not match %q", rep.Text, name)
		}
	}
	p.expectOp(";")
	return a
}

func (p *Parser) parseArchDecl(a *Architecture) {
	switch {
	case p.atKeyword("signal"):
		p.advance()
		sd := &SignalDecl{Pos: p.cur().Pos}
		for {
			nm, _, ok := p.expectIdent("signal name")
			if !ok {
				p.syncPast(";")
				return
			}
			sd.Names = append(sd.Names, nm)
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(":")
		sd.Type = p.parseTypeRef()
		if p.acceptOp(":=") {
			sd.Init = p.parseExpr()
		}
		p.expectOp(";")
		a.Decls = append(a.Decls, sd)
	case p.atKeyword("constant"):
		p.advance()
		nm, _, ok := p.expectIdent("constant name")
		if !ok {
			p.syncPast(";")
			return
		}
		p.expectOp(":")
		tr := p.parseTypeRef()
		p.expectOp(":=")
		val := p.parseExpr()
		p.expectOp(";")
		a.Decls = append(a.Decls, &ConstDecl{Name: nm, Type: tr, Value: val})
	case p.atKeyword("component"):
		// Component declarations are tolerated and skipped; direct
		// entity instantiation carries the binding info we need.
		p.syncToKeyword("end")
		p.expectKeyword("end")
		p.acceptKeyword("component")
		if p.at(TokIdent) {
			p.advance()
		}
		p.expectOp(";")
	case p.atKeyword("type"), p.atKeyword("subtype"), p.atKeyword("function"):
		kw := p.cur().Text
		p.errorf(p.cur().Pos, "VRFC 10-22", "%s declarations are not supported by this tool subset", kw)
		p.syncPast(";")
	default:
		// caller reports
	}
}

// ----------------------------------------------------------- concurrent

func (p *Parser) parseConcStmt() ConcStmt {
	// Optional label.
	label := ""
	if p.at(TokIdent) && p.peekTok(1).Kind == TokOp && p.peekTok(1).Text == ":" &&
		!(p.peekTok(2).Kind == TokOp && p.peekTok(2).Text == "=") {
		label = p.advance().Text
		p.advance() // :
	}
	switch {
	case p.atKeyword("process"):
		return p.parseProcess(label)
	case p.atKeyword("entity"):
		return p.parseDirectInstance(label)
	case p.atKeyword("with"):
		return p.parseSelectedAssign(label)
	case p.at(TokIdent):
		// Either component instantiation `label: comp port map (...)`
		// (label already consumed, cur is component name followed by
		// port/generic map) or a concurrent signal assignment.
		if label != "" && (p.peekTok(1).Kind == TokKeyword && (p.peekTok(1).Text == "port" || p.peekTok(1).Text == "generic")) {
			entName := p.advance().Text
			return p.parseMaps(label, entName)
		}
		return p.parseConcAssign(label)
	default:
		return nil
	}
}

func (p *Parser) parseConcAssign(label string) ConcStmt {
	start := p.cur().Pos
	target := p.parseNameExpr()
	if !p.expectOp("<=") {
		p.syncPast(";")
		return nil
	}
	ca := &ConcAssign{Label: label, Target: target, Pos: start}
	for {
		w := CondWave{}
		w.Value = p.parseExpr()
		if p.acceptKeyword("after") {
			w.AfterNs = p.parseTimeExpr()
		}
		if p.acceptKeyword("when") {
			w.Cond = p.parseExpr()
			ca.Waves = append(ca.Waves, w)
			if p.acceptKeyword("else") {
				continue
			}
			break
		}
		ca.Waves = append(ca.Waves, w)
		break
	}
	p.expectOp(";")
	return ca
}

// parseSelectedAssign desugars a selected signal assignment
//
//	with sel select y <= a when "00", b when "01", c when others;
//
// into a conditional ConcAssign whose arm conditions compare the
// selector against each choice.
func (p *Parser) parseSelectedAssign(label string) ConcStmt {
	start := p.cur().Pos
	p.expectKeyword("with")
	selector := p.parseExpr()
	p.expectKeyword("select")
	target := p.parseNameExpr()
	if !p.expectOp("<=") {
		p.syncPast(";")
		return nil
	}
	ca := &ConcAssign{Label: label, Target: target, Pos: start}
	for {
		val := p.parseExpr()
		p.expectKeyword("when")
		if p.acceptKeyword("others") {
			ca.Waves = append(ca.Waves, CondWave{Value: val})
			break
		}
		choice := p.parseExpr()
		cond := Expr(&BinaryExpr{Op: "=", L: selector, R: choice, Pos: choice.ExprPos()})
		for p.acceptOp("|") {
			alt := p.parseExpr()
			cond = &BinaryExpr{Op: "or", L: cond,
				R: &BinaryExpr{Op: "=", L: selector, R: alt, Pos: alt.ExprPos()}, Pos: alt.ExprPos()}
		}
		ca.Waves = append(ca.Waves, CondWave{Value: val, Cond: cond})
		if !p.acceptOp(",") {
			break
		}
	}
	p.expectOp(";")
	return ca
}

// parseTimeExpr parses `5 ns` / `10 ps` etc. into nanosecond units.
func (p *Parser) parseTimeExpr() Expr {
	e := p.parseExpr()
	switch {
	case p.acceptKeyword("ns"):
		return e
	case p.acceptKeyword("ps"):
		// Sub-ns resolution is rounded down to 0 in this simulator.
		return &BinaryExpr{Op: "/", L: e, R: &IntLit{Value: 1000, Pos: e.ExprPos()}, Pos: e.ExprPos()}
	case p.acceptKeyword("us"):
		return &BinaryExpr{Op: "*", L: e, R: &IntLit{Value: 1000, Pos: e.ExprPos()}, Pos: e.ExprPos()}
	case p.acceptKeyword("ms"):
		return &BinaryExpr{Op: "*", L: e, R: &IntLit{Value: 1000000, Pos: e.ExprPos()}, Pos: e.ExprPos()}
	}
	return e
}

func (p *Parser) parseProcess(label string) ConcStmt {
	start := p.cur().Pos
	p.expectKeyword("process")
	ps := &ProcessStmt{Label: label, Pos: start}
	if p.acceptOp("(") {
		for !p.atOp(")") && !p.at(TokEOF) {
			ps.Sens = append(ps.Sens, p.parseNameExpr())
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(")")
	}
	p.acceptKeyword("is")
	for !p.atKeyword("begin") && !p.at(TokEOF) {
		before := p.pos
		p.parseProcDecl(ps)
		if p.pos == before {
			p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q in process declarations", p.cur().Text)
			p.advance()
		}
	}
	p.expectKeyword("begin")
	ps.Body = p.parseStmtsUntil("end")
	p.expectKeyword("end")
	p.expectKeyword("process")
	if p.at(TokIdent) {
		p.advance()
	}
	p.expectOp(";")
	return ps
}

func (p *Parser) parseProcDecl(ps *ProcessStmt) {
	switch {
	case p.atKeyword("variable"):
		p.advance()
		vd := &VarDecl{Pos: p.cur().Pos}
		for {
			nm, _, ok := p.expectIdent("variable name")
			if !ok {
				p.syncPast(";")
				return
			}
			vd.Names = append(vd.Names, nm)
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(":")
		vd.Type = p.parseTypeRef()
		if p.acceptOp(":=") {
			vd.Init = p.parseExpr()
		}
		p.expectOp(";")
		ps.Decls = append(ps.Decls, vd)
	case p.atKeyword("constant"):
		p.advance()
		nm, _, ok := p.expectIdent("constant name")
		if !ok {
			p.syncPast(";")
			return
		}
		p.expectOp(":")
		tr := p.parseTypeRef()
		p.expectOp(":=")
		val := p.parseExpr()
		p.expectOp(";")
		ps.Decls = append(ps.Decls, &ConstDecl{Name: nm, Type: tr, Value: val})
	}
}

func (p *Parser) parseDirectInstance(label string) ConcStmt {
	p.expectKeyword("entity")
	p.expectKeyword("work")
	p.expectOp(".")
	name, _, ok := p.expectIdent("entity name")
	if !ok {
		p.syncPast(";")
		return nil
	}
	// Optional architecture selection: entity work.foo(rtl).
	if p.atOp("(") {
		p.advance()
		p.expectIdent("architecture name")
		p.expectOp(")")
	}
	return p.parseMaps(label, name)
}

func (p *Parser) parseMaps(label, entName string) ConcStmt {
	inst := &InstanceStmt{Label: label, EntityName: entName, Pos: p.cur().Pos}
	if p.acceptKeyword("generic") {
		p.expectKeyword("map")
		p.expectOp("(")
		inst.Generics = p.parseAssocList()
		p.expectOp(")")
	}
	if p.acceptKeyword("port") {
		p.expectKeyword("map")
		p.expectOp("(")
		inst.Ports = p.parseAssocList()
		p.expectOp(")")
	}
	p.expectOp(";")
	return inst
}

func (p *Parser) parseAssocList() []Assoc {
	var out []Assoc
	for !p.atOp(")") && !p.at(TokEOF) {
		pos := p.cur().Pos
		// Formal => actual, if `ident =>` follows.
		if p.at(TokIdent) && p.peekTok(1).Kind == TokOp && p.peekTok(1).Text == "=>" {
			formal := p.advance().Text
			p.advance() // =>
			out = append(out, Assoc{Formal: formal, Actual: p.parseExpr(), Pos: pos})
		} else {
			out = append(out, Assoc{Actual: p.parseExpr(), Pos: pos})
		}
		if !p.acceptOp(",") {
			break
		}
	}
	return out
}

// ----------------------------------------------------------- sequential

// parseStmtsUntil parses sequential statements until one of the stop
// keywords is current.
func (p *Parser) parseStmtsUntil(stops ...string) []Stmt {
	var out []Stmt
	atStop := func() bool {
		for _, s := range stops {
			if p.atKeyword(s) {
				return true
			}
		}
		return p.at(TokEOF)
	}
	for !atStop() {
		before := p.pos
		if st := p.parseStmt(); st != nil {
			out = append(out, st)
		}
		if p.pos == before {
			p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q; expecting a statement", p.cur().Text)
			p.advance()
		}
	}
	return out
}

func (p *Parser) parseStmt() Stmt {
	t := p.cur()
	switch {
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("case"):
		return p.parseCase()
	case p.atKeyword("for"):
		return p.parseFor()
	case p.atKeyword("while"):
		p.advance()
		cond := p.parseExpr()
		p.expectKeyword("loop")
		body := p.parseStmtsUntil("end")
		p.expectKeyword("end")
		p.expectKeyword("loop")
		p.expectOp(";")
		return &WhileStmt{Cond: cond, Body: body, Pos: t.Pos}
	case p.atKeyword("wait"):
		return p.parseWait()
	case p.atKeyword("assert"):
		return p.parseAssert()
	case p.atKeyword("report"):
		p.advance()
		msg := p.parseExpr()
		sev := ""
		if p.acceptKeyword("severity") {
			sev, _, _ = p.expectIdent("severity level")
		}
		p.expectOp(";")
		return &ReportStmt{Message: msg, Severity: sev, Pos: t.Pos}
	case p.atKeyword("null"):
		p.advance()
		p.expectOp(";")
		return &NullStmt{Pos: t.Pos}
	case p.atKeyword("exit"):
		p.advance()
		var when Expr
		if p.acceptKeyword("when") {
			when = p.parseExpr()
		}
		p.expectOp(";")
		return &ExitStmt{When: when, Pos: t.Pos}
	case p.at(TokIdent):
		target := p.parseNameExpr()
		switch {
		case p.acceptOp("<="):
			val := p.parseExpr()
			var after Expr
			if p.acceptKeyword("after") {
				after = p.parseTimeExpr()
			}
			p.expectOp(";")
			return &SigAssign{Target: target, Value: val, AfterNs: after, Pos: t.Pos}
		case p.acceptOp(":="):
			val := p.parseExpr()
			p.expectOp(";")
			return &VarAssign{Target: target, Value: val, Pos: t.Pos}
		default:
			p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q; expecting '<=' or ':='", p.cur().Text)
			p.syncPast(";")
			return nil
		}
	default:
		return nil
	}
}

func (p *Parser) parseIf() Stmt {
	start := p.cur().Pos
	p.expectKeyword("if")
	st := &IfStmt{Pos: start}
	cond := p.parseExpr()
	p.expectKeyword("then")
	body := p.parseStmtsUntil("elsif", "else", "end")
	st.Branches = append(st.Branches, IfBranch{Cond: cond, Body: body})
	for p.acceptKeyword("elsif") {
		c := p.parseExpr()
		p.expectKeyword("then")
		b := p.parseStmtsUntil("elsif", "else", "end")
		st.Branches = append(st.Branches, IfBranch{Cond: c, Body: b})
	}
	if p.acceptKeyword("else") {
		st.Else = p.parseStmtsUntil("end")
	}
	p.expectKeyword("end")
	p.expectKeyword("if")
	p.expectOp(";")
	return st
}

func (p *Parser) parseCase() Stmt {
	start := p.cur().Pos
	p.expectKeyword("case")
	subject := p.parseExpr()
	p.expectKeyword("is")
	cs := &CaseStmt{Expr: subject, Pos: start}
	for p.atKeyword("when") {
		pos := p.advance().Pos
		arm := CaseArm{Pos: pos}
		if p.acceptKeyword("others") {
			arm.Choices = nil
		} else {
			for {
				arm.Choices = append(arm.Choices, p.parseExpr())
				if !p.acceptOp("|") {
					break
				}
			}
		}
		p.expectOp("=>")
		arm.Body = p.parseStmtsUntil("when", "end")
		cs.Arms = append(cs.Arms, arm)
	}
	p.expectKeyword("end")
	p.expectKeyword("case")
	p.expectOp(";")
	return cs
}

func (p *Parser) parseFor() Stmt {
	start := p.cur().Pos
	p.expectKeyword("for")
	v, _, ok := p.expectIdent("loop variable")
	if !ok {
		p.syncPast(";")
		return nil
	}
	p.expectKeyword("in")
	left := p.parseExpr()
	desc := false
	switch {
	case p.acceptKeyword("to"):
	case p.acceptKeyword("downto"):
		desc = true
	default:
		p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q; expecting 'to' or 'downto'", p.cur().Text)
	}
	right := p.parseExpr()
	p.expectKeyword("loop")
	body := p.parseStmtsUntil("end")
	p.expectKeyword("end")
	p.expectKeyword("loop")
	p.expectOp(";")
	return &ForStmt{Var: v, Left: left, Right: right, Descending: desc, Body: body, Pos: start}
}

func (p *Parser) parseWait() Stmt {
	start := p.advance().Pos // wait
	w := &WaitStmt{Pos: start}
	switch {
	case p.acceptKeyword("for"):
		w.ForNs = p.parseTimeExpr()
	case p.acceptKeyword("until"):
		w.Until = p.parseExpr()
		if p.acceptKeyword("for") {
			w.ForNs = p.parseTimeExpr()
		}
	case p.acceptKeyword("on"):
		for {
			w.OnSignals = append(w.OnSignals, p.parseNameExpr())
			if !p.acceptOp(",") {
				break
			}
		}
	default:
		w.Forever = true
	}
	p.expectOp(";")
	return w
}

func (p *Parser) parseAssert() Stmt {
	start := p.advance().Pos // assert
	a := &AssertStmt{Pos: start}
	a.Cond = p.parseExpr()
	if p.acceptKeyword("report") {
		a.Report = p.parseExpr()
	}
	if p.acceptKeyword("severity") {
		sev, _, _ := p.expectIdent("severity level")
		a.Severity = sev
	}
	p.expectOp(";")
	return a
}

// ---------------------------------------------------------------- exprs

// VHDL operator precedence, loosest to tightest:
// logical < relational < shift < adding < multiplying < unary ** not

func (p *Parser) parseExpr() Expr { return p.parseLogical() }

func (p *Parser) parseLogical() Expr {
	left := p.parseRelational()
	for {
		t := p.cur()
		if t.Kind != TokKeyword {
			return left
		}
		switch t.Text {
		case "and", "or", "xor", "nand", "nor", "xnor":
			p.advance()
			right := p.parseRelational()
			left = &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
		default:
			return left
		}
	}
}

func (p *Parser) parseRelational() Expr {
	left := p.parseShift()
	t := p.cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "=", "/=", "<", "<=", ">", ">=":
			p.advance()
			right := p.parseShift()
			return &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
		}
	}
	return left
}

func (p *Parser) parseShift() Expr {
	left := p.parseAdding()
	t := p.cur()
	if t.Kind == TokKeyword && (t.Text == "sll" || t.Text == "srl") {
		p.advance()
		right := p.parseAdding()
		return &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
	}
	return left
}

func (p *Parser) parseAdding() Expr {
	left := p.parseMultiplying()
	for {
		t := p.cur()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-" || t.Text == "&") {
			p.advance()
			right := p.parseMultiplying()
			left = &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
			continue
		}
		return left
	}
}

func (p *Parser) parseMultiplying() Expr {
	left := p.parseUnary()
	for {
		t := p.cur()
		if (t.Kind == TokOp && (t.Text == "*" || t.Text == "/" || t.Text == "**")) ||
			(t.Kind == TokKeyword && (t.Text == "mod" || t.Text == "rem")) {
			p.advance()
			right := p.parseUnary()
			left = &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
			continue
		}
		return left
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.cur()
	if t.Kind == TokKeyword && t.Text == "not" {
		p.advance()
		return &UnaryExpr{Op: "not", X: p.parseUnary(), Pos: t.Pos}
	}
	if t.Kind == TokOp && (t.Text == "-" || t.Text == "+") {
		p.advance()
		return &UnaryExpr{Op: t.Text, X: p.parseUnary(), Pos: t.Pos}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.advance()
		var v int64
		for _, r := range t.Text {
			v = v*10 + int64(r-'0')
		}
		return &IntLit{Value: v, Pos: t.Pos}
	case t.Kind == TokChar:
		p.advance()
		r, _ := utf8.DecodeRuneInString(t.Text)
		return &CharLit{Value: hdl.LogicFromRune(r), Raw: t.Text, Pos: t.Pos}
	case t.Kind == TokBitStr:
		p.advance()
		kind := t.Text[0]
		body := t.Text[2:]
		v, err := hdl.ParseVHDLBitString(kind, body)
		if err != nil {
			p.errorf(t.Pos, "VRFC 10-4", "malformed bit string: %v", err)
			v = hdl.XFill(1)
		}
		return &BitStrLit{Value: v, Raw: body, Pos: t.Pos}
	case t.Kind == TokString:
		p.advance()
		return &StrLit{Value: t.Text, Pos: t.Pos}
	case t.Kind == TokKeyword && (t.Text == "true" || t.Text == "false"):
		p.advance()
		return &BoolLit{Value: t.Text == "true", Pos: t.Pos}
	case t.Kind == TokKeyword && t.Text == "others":
		// Bare inside aggregates only; handled below.
		p.errorf(t.Pos, "VRFC 10-1", "'others' is only valid inside an aggregate")
		p.advance()
		return &IntLit{Pos: t.Pos}
	case t.Kind == TokIdent:
		return p.parseNameExpr()
	case p.atOp("("):
		pos := p.advance().Pos
		// Aggregate (others => x)?
		if p.atKeyword("others") {
			p.advance()
			p.expectOp("=>")
			v := p.parseExpr()
			p.expectOp(")")
			return &AggregateExpr{Others: v, Pos: pos}
		}
		e := p.parseExpr()
		p.expectOp(")")
		return e
	default:
		p.errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting an expression", t.Text)
		p.advance()
		return &IntLit{Pos: t.Pos}
	}
}

// parseNameExpr parses ident, ident(args), ident(l downto r), ident'attr.
func (p *Parser) parseNameExpr() Expr {
	t := p.cur()
	if t.Kind != TokIdent {
		p.errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting a name", t.Text)
		p.advance()
		return &Name{Ident: "_err_", Pos: t.Pos}
	}
	p.advance()
	name := t.Text
	// Attribute?
	if p.atOp("'") && p.peekTok(1).Kind == TokKeyword {
		p.advance()
		attr := p.advance().Text
		return &AttrExpr{Base: name, Attr: attr, Pos: t.Pos}
	}
	if !p.atOp("(") {
		return &Name{Ident: name, Pos: t.Pos}
	}
	p.advance() // (
	ci := &CallOrIndex{Name: name, Pos: t.Pos}
	// Slice: expr downto/to expr
	first := p.parseExpr()
	switch {
	case p.acceptKeyword("downto"):
		ci.IsSlice, ci.Descending = true, true
		ci.Left = first
		ci.Right = p.parseExpr()
	case p.acceptKeyword("to"):
		ci.IsSlice, ci.Descending = true, false
		ci.Left = first
		ci.Right = p.parseExpr()
	default:
		ci.Args = append(ci.Args, first)
		for p.acceptOp(",") {
			ci.Args = append(ci.Args, p.parseExpr())
		}
	}
	p.expectOp(")")
	return ci
}
