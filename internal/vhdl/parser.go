package vhdl

import (
	"unicode/utf8"

	"repro/internal/diag"
	"repro/internal/hdl"
	"repro/internal/lex"
)

// Parser is a recursive-descent parser for the supported VHDL subset,
// with statement-level error recovery so one pass yields multiple
// diagnostics (the Review Agent relies on complete logs). It reads the
// tokens of its Lexer through a lex.Stream.
type Parser struct {
	lex.Stream
	lx Lexer
}

// Parse parses src and returns the design file plus diagnostics.
func Parse(file, src string) (*DesignFile, diag.List) {
	p := &Parser{lx: Lexer{Cursor: lex.NewCursor(src)}}
	if p.Start(file, len(src)) {
		p.Fill(p.lx.Next())
	}
	df := &DesignFile{}
	for !p.At(lex.EOF) {
		switch {
		case p.Is(lex.Keyword, "library"), p.Is(lex.Keyword, "use"):
			p.syncPast(";")
		case p.Is(lex.Keyword, "entity"):
			if e := p.parseEntity(); e != nil {
				df.Entities = append(df.Entities, e)
			}
		case p.Is(lex.Keyword, "architecture"):
			if a := p.parseArchitecture(); a != nil {
				df.Archs = append(df.Archs, a)
			}
		default:
			p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q; expecting a design unit", p.Cur().Text)
			p.Advance()
		}
	}
	p.Diags.AttachSnippets(src)
	return df, p.Diags
}

// Advance consumes and returns the current token (see lex.Stream.Shift).
func (p *Parser) Advance() lex.Token {
	t, pull := p.Shift()
	if pull {
		p.Fill(p.lx.Next())
	}
	return t
}

// Peek returns the token n places past the current one (n <= 2),
// lexing it on demand; past the end it returns the EOF token.
func (p *Parser) Peek(n int) lex.Token {
	for p.Lacks(n) {
		p.Fill(p.lx.Next())
	}
	return p.Ahead(n)
}

// Accept consumes the current token if it is of kind k and spells text.
func (p *Parser) Accept(k lex.Kind, text string) bool {
	if !p.Is(k, text) {
		return false
	}
	p.Advance()
	return true
}

// Expect consumes the current token if it is of kind k and spells text,
// and reports a syntax error otherwise.
func (p *Parser) Expect(k lex.Kind, text string) bool {
	return p.Accept(k, text) || p.Missing(text)
}

// ExpectIdent consumes the current token if it is an identifier and
// returns its text and position; otherwise it reports a syntax error
// naming what was expected.
func (p *Parser) ExpectIdent(what string) (string, lex.Pos, bool) {
	if t := p.Cur(); t.Kind == lex.Ident {
		p.Advance()
		return t.Text, t.Pos, true
	}
	return p.MissingIdent(what)
}

// syncPast skips tokens up to and including the given operator.
func (p *Parser) syncPast(op string) {
	for !p.At(lex.EOF) {
		if p.Is(TokOp, op) {
			p.Advance()
			return
		}
		p.Advance()
	}
}

// syncToKeyword skips until one of the keywords (not consumed).
func (p *Parser) syncToKeyword(kws ...string) {
	for !p.At(lex.EOF) {
		for _, kw := range kws {
			if p.Is(lex.Keyword, kw) {
				return
			}
		}
		p.Advance()
	}
}

// --------------------------------------------------------------- entity

func (p *Parser) parseEntity() *Entity {
	start := p.Cur().Pos
	p.Expect(lex.Keyword, "entity")
	name, _, ok := p.ExpectIdent("entity name")
	if !ok {
		p.syncToKeyword("entity", "architecture")
		return nil
	}
	e := &Entity{Name: name, Pos: start}
	p.Expect(lex.Keyword, "is")
	if p.Accept(lex.Keyword, "generic") {
		p.Expect(TokOp, "(")
		p.parseGenerics(e)
		p.Expect(TokOp, ")")
		p.Expect(TokOp, ";")
	}
	if p.Accept(lex.Keyword, "port") {
		p.Expect(TokOp, "(")
		p.parsePorts(e)
		p.Expect(TokOp, ")")
		p.Expect(TokOp, ";")
	}
	p.Expect(lex.Keyword, "end")
	p.Accept(lex.Keyword, "entity")
	if p.At(lex.Ident) {
		rep := p.Advance() // optional repeated name must match
		if rep.Text != name {
			p.Errorf(rep.Pos, "VRFC 10-23", "name %q at end of entity does not match %q", rep.Text, name)
		}
	}
	p.Expect(TokOp, ";")
	return e
}

func (p *Parser) parseGenerics(e *Entity) {
	for {
		var names []string
		for {
			nm, _, ok := p.ExpectIdent("generic name")
			if !ok {
				p.syncPast(")")
				return
			}
			names = append(names, nm)
			if !p.Accept(TokOp, ",") {
				break
			}
		}
		p.Expect(TokOp, ":")
		tr := p.parseTypeRef()
		var def Expr
		if p.Accept(TokOp, ":=") {
			def = p.parseExpr()
		}
		for _, nm := range names {
			e.Generics = append(e.Generics, &GenericDecl{Name: nm, Type: tr, Default: def, Pos: tr.Pos})
		}
		if !p.Accept(TokOp, ";") {
			return
		}
	}
}

func (p *Parser) parsePorts(e *Entity) {
	for {
		var names []string
		var pos lex.Pos
		for {
			t := p.Cur()
			nm, npos, ok := p.ExpectIdent("port name")
			if !ok {
				_ = t
				p.syncPast(")")
				return
			}
			if len(names) == 0 {
				pos = npos
			}
			names = append(names, nm)
			if !p.Accept(TokOp, ",") {
				break
			}
		}
		p.Expect(TokOp, ":")
		dir := DirIn
		switch {
		case p.Accept(lex.Keyword, "in"):
			dir = DirIn
		case p.Accept(lex.Keyword, "out"):
			dir = DirOut
		case p.Accept(lex.Keyword, "inout"), p.Accept(lex.Keyword, "buffer"):
			dir = DirInout
		default:
			p.Errorf(p.Cur().Pos, "VRFC 10-20", "port %q missing mode (in/out/inout)", names[0])
		}
		tr := p.parseTypeRef()
		for _, nm := range names {
			e.Ports = append(e.Ports, &PortDecl{Name: nm, Dir: dir, Type: tr, Pos: pos})
		}
		if !p.Accept(TokOp, ";") {
			return
		}
	}
}

// parseTypeRef parses std_logic, std_logic_vector(7 downto 0), integer,
// integer range a to b, unsigned(...), boolean, time.
func (p *Parser) parseTypeRef() TypeRef {
	t := p.Cur()
	tr := TypeRef{Pos: t.Pos}
	switch {
	case t.Kind == lex.Ident:
		tr.Name = t.Text
		p.Advance()
	case t.Kind == lex.Keyword && (t.Text == "integer" || t.Text == "boolean" ||
		t.Text == "natural" || t.Text == "positive" || t.Text == "time" || t.Text == "string"):
		tr.Name = t.Text
		p.Advance()
	default:
		p.Errorf(t.Pos, "VRFC 10-21", "syntax error near %q; expecting a type mark", t.Text)
		p.Advance()
		return tr
	}
	if p.Accept(lex.Keyword, "range") { // integer range 0 to 15: parse and discard bounds
		p.parseExpr()
		if p.Accept(lex.Keyword, "to") || p.Accept(lex.Keyword, "downto") {
			p.parseExpr()
		}
		return tr
	}
	if p.Is(TokOp, "(") {
		p.Advance()
		tr.HasRange = true
		tr.Left = p.parseExpr()
		switch {
		case p.Accept(lex.Keyword, "downto"):
			tr.Descending = true
		case p.Accept(lex.Keyword, "to"):
			tr.Descending = false
		default:
			p.Errorf(p.Cur().Pos, "VRFC 10-21", "syntax error near %q; expecting 'downto' or 'to'", p.Cur().Text)
		}
		tr.Right = p.parseExpr()
		p.Expect(TokOp, ")")
	}
	return tr
}

// --------------------------------------------------------- architecture

func (p *Parser) parseArchitecture() *Architecture {
	start := p.Cur().Pos
	p.Expect(lex.Keyword, "architecture")
	name, _, ok := p.ExpectIdent("architecture name")
	if !ok {
		p.syncToKeyword("entity", "architecture")
		return nil
	}
	p.Expect(lex.Keyword, "of")
	entName, _, ok := p.ExpectIdent("entity name")
	if !ok {
		p.syncToKeyword("entity", "architecture")
		return nil
	}
	a := &Architecture{Name: name, EntityName: entName, Pos: start}
	p.Expect(lex.Keyword, "is")
	// Declarative region.
	for !p.Is(lex.Keyword, "begin") && !p.At(lex.EOF) {
		before := p.Consumed()
		p.parseArchDecl(a)
		if p.Consumed() == before {
			p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q in declarations", p.Cur().Text)
			p.Advance()
		}
	}
	p.Expect(lex.Keyword, "begin")
	for !p.Is(lex.Keyword, "end") && !p.At(lex.EOF) {
		before := p.Consumed()
		if st := p.parseConcStmt(); st != nil {
			a.Stmts = append(a.Stmts, st)
		}
		if p.Consumed() == before {
			p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q in architecture body", p.Cur().Text)
			p.Advance()
		}
	}
	if !p.Accept(lex.Keyword, "end") {
		p.Errorf(start, "VRFC 10-2", "architecture %q missing 'end'", name)
	}
	p.Accept(lex.Keyword, "architecture")
	if p.At(lex.Ident) {
		rep := p.Advance()
		if rep.Text != name {
			p.Errorf(rep.Pos, "VRFC 10-23", "name %q at end of architecture does not match %q", rep.Text, name)
		}
	}
	p.Expect(TokOp, ";")
	return a
}

func (p *Parser) parseArchDecl(a *Architecture) {
	switch {
	case p.Is(lex.Keyword, "signal"):
		p.Advance()
		sd := &SignalDecl{Pos: p.Cur().Pos}
		for {
			nm, _, ok := p.ExpectIdent("signal name")
			if !ok {
				p.syncPast(";")
				return
			}
			sd.Names = append(sd.Names, nm)
			if !p.Accept(TokOp, ",") {
				break
			}
		}
		p.Expect(TokOp, ":")
		sd.Type = p.parseTypeRef()
		if p.Accept(TokOp, ":=") {
			sd.Init = p.parseExpr()
		}
		p.Expect(TokOp, ";")
		a.Decls = append(a.Decls, sd)
	case p.Is(lex.Keyword, "constant"):
		p.Advance()
		nm, _, ok := p.ExpectIdent("constant name")
		if !ok {
			p.syncPast(";")
			return
		}
		p.Expect(TokOp, ":")
		tr := p.parseTypeRef()
		p.Expect(TokOp, ":=")
		val := p.parseExpr()
		p.Expect(TokOp, ";")
		a.Decls = append(a.Decls, &ConstDecl{Name: nm, Type: tr, Value: val})
	case p.Is(lex.Keyword, "component"):
		// Component declarations are tolerated and skipped; direct
		// entity instantiation carries the binding info we need.
		p.syncToKeyword("end")
		p.Expect(lex.Keyword, "end")
		p.Accept(lex.Keyword, "component")
		if p.At(lex.Ident) {
			p.Advance()
		}
		p.Expect(TokOp, ";")
	case p.Is(lex.Keyword, "type"), p.Is(lex.Keyword, "subtype"), p.Is(lex.Keyword, "function"):
		kw := p.Cur().Text
		p.Errorf(p.Cur().Pos, "VRFC 10-22", "%s declarations are not supported by this tool subset", kw)
		p.syncPast(";")
	default:
		// caller reports
	}
}

// ----------------------------------------------------------- concurrent

func (p *Parser) parseConcStmt() ConcStmt {
	// Optional label.
	label := ""
	if p.At(lex.Ident) && p.Peek(1).Kind == TokOp && p.Peek(1).Text == ":" &&
		!(p.Peek(2).Kind == TokOp && p.Peek(2).Text == "=") {
		label = p.Advance().Text
		p.Advance() // :
	}
	switch {
	case p.Is(lex.Keyword, "process"):
		return p.parseProcess(label)
	case p.Is(lex.Keyword, "entity"):
		return p.parseDirectInstance(label)
	case p.Is(lex.Keyword, "with"):
		return p.parseSelectedAssign(label)
	case p.At(lex.Ident):
		// Either component instantiation `label: comp port map (...)`
		// (label already consumed, cur is component name followed by
		// port/generic map) or a concurrent signal assignment.
		if label != "" && (p.Peek(1).Kind == lex.Keyword && (p.Peek(1).Text == "port" || p.Peek(1).Text == "generic")) {
			entName := p.Advance().Text
			return p.parseMaps(label, entName)
		}
		return p.parseConcAssign(label)
	default:
		return nil
	}
}

func (p *Parser) parseConcAssign(label string) ConcStmt {
	start := p.Cur().Pos
	target := p.parseNameExpr()
	if !p.Expect(TokOp, "<=") {
		p.syncPast(";")
		return nil
	}
	ca := &ConcAssign{Label: label, Target: target, Pos: start}
	for {
		w := CondWave{}
		w.Value = p.parseExpr()
		if p.Accept(lex.Keyword, "after") {
			w.AfterNs = p.parseTimeExpr()
		}
		if p.Accept(lex.Keyword, "when") {
			w.Cond = p.parseExpr()
			ca.Waves = append(ca.Waves, w)
			if p.Accept(lex.Keyword, "else") {
				continue
			}
			break
		}
		ca.Waves = append(ca.Waves, w)
		break
	}
	p.Expect(TokOp, ";")
	return ca
}

// parseSelectedAssign desugars a selected signal assignment
//
//	with sel select y <= a when "00", b when "01", c when others;
//
// into a conditional ConcAssign whose arm conditions compare the
// selector against each choice.
func (p *Parser) parseSelectedAssign(label string) ConcStmt {
	start := p.Cur().Pos
	p.Expect(lex.Keyword, "with")
	selector := p.parseExpr()
	p.Expect(lex.Keyword, "select")
	target := p.parseNameExpr()
	if !p.Expect(TokOp, "<=") {
		p.syncPast(";")
		return nil
	}
	ca := &ConcAssign{Label: label, Target: target, Pos: start}
	for {
		val := p.parseExpr()
		p.Expect(lex.Keyword, "when")
		if p.Accept(lex.Keyword, "others") {
			ca.Waves = append(ca.Waves, CondWave{Value: val})
			break
		}
		choice := p.parseExpr()
		cond := Expr(&BinaryExpr{Op: "=", L: selector, R: choice, Pos: choice.ExprPos()})
		for p.Accept(TokOp, "|") {
			alt := p.parseExpr()
			cond = &BinaryExpr{Op: "or", L: cond,
				R: &BinaryExpr{Op: "=", L: selector, R: alt, Pos: alt.ExprPos()}, Pos: alt.ExprPos()}
		}
		ca.Waves = append(ca.Waves, CondWave{Value: val, Cond: cond})
		if !p.Accept(TokOp, ",") {
			break
		}
	}
	p.Expect(TokOp, ";")
	return ca
}

// parseTimeExpr parses `5 ns` / `10 ps` etc. into nanosecond units.
func (p *Parser) parseTimeExpr() Expr {
	e := p.parseExpr()
	switch {
	case p.Accept(lex.Keyword, "ns"):
		return e
	case p.Accept(lex.Keyword, "ps"):
		// Sub-ns resolution is rounded down to 0 in this simulator.
		return &BinaryExpr{Op: "/", L: e, R: &IntLit{Value: 1000, Pos: e.ExprPos()}, Pos: e.ExprPos()}
	case p.Accept(lex.Keyword, "us"):
		return &BinaryExpr{Op: "*", L: e, R: &IntLit{Value: 1000, Pos: e.ExprPos()}, Pos: e.ExprPos()}
	case p.Accept(lex.Keyword, "ms"):
		return &BinaryExpr{Op: "*", L: e, R: &IntLit{Value: 1000000, Pos: e.ExprPos()}, Pos: e.ExprPos()}
	}
	return e
}

func (p *Parser) parseProcess(label string) ConcStmt {
	start := p.Cur().Pos
	p.Expect(lex.Keyword, "process")
	ps := &ProcessStmt{Label: label, Pos: start}
	if p.Accept(TokOp, "(") {
		for !p.Is(TokOp, ")") && !p.At(lex.EOF) {
			ps.Sens = append(ps.Sens, p.parseNameExpr())
			if !p.Accept(TokOp, ",") {
				break
			}
		}
		p.Expect(TokOp, ")")
	}
	p.Accept(lex.Keyword, "is")
	for !p.Is(lex.Keyword, "begin") && !p.At(lex.EOF) {
		before := p.Consumed()
		p.parseProcDecl(ps)
		if p.Consumed() == before {
			p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q in process declarations", p.Cur().Text)
			p.Advance()
		}
	}
	p.Expect(lex.Keyword, "begin")
	ps.Body = p.parseStmtsUntil("end")
	p.Expect(lex.Keyword, "end")
	p.Expect(lex.Keyword, "process")
	if p.At(lex.Ident) {
		p.Advance()
	}
	p.Expect(TokOp, ";")
	return ps
}

func (p *Parser) parseProcDecl(ps *ProcessStmt) {
	switch {
	case p.Is(lex.Keyword, "variable"):
		p.Advance()
		vd := &VarDecl{Pos: p.Cur().Pos}
		for {
			nm, _, ok := p.ExpectIdent("variable name")
			if !ok {
				p.syncPast(";")
				return
			}
			vd.Names = append(vd.Names, nm)
			if !p.Accept(TokOp, ",") {
				break
			}
		}
		p.Expect(TokOp, ":")
		vd.Type = p.parseTypeRef()
		if p.Accept(TokOp, ":=") {
			vd.Init = p.parseExpr()
		}
		p.Expect(TokOp, ";")
		ps.Decls = append(ps.Decls, vd)
	case p.Is(lex.Keyword, "constant"):
		p.Advance()
		nm, _, ok := p.ExpectIdent("constant name")
		if !ok {
			p.syncPast(";")
			return
		}
		p.Expect(TokOp, ":")
		tr := p.parseTypeRef()
		p.Expect(TokOp, ":=")
		val := p.parseExpr()
		p.Expect(TokOp, ";")
		ps.Decls = append(ps.Decls, &ConstDecl{Name: nm, Type: tr, Value: val})
	}
}

func (p *Parser) parseDirectInstance(label string) ConcStmt {
	p.Expect(lex.Keyword, "entity")
	p.Expect(lex.Keyword, "work")
	p.Expect(TokOp, ".")
	name, _, ok := p.ExpectIdent("entity name")
	if !ok {
		p.syncPast(";")
		return nil
	}
	// Optional architecture selection: entity work.foo(rtl).
	if p.Is(TokOp, "(") {
		p.Advance()
		p.ExpectIdent("architecture name")
		p.Expect(TokOp, ")")
	}
	return p.parseMaps(label, name)
}

func (p *Parser) parseMaps(label, entName string) ConcStmt {
	inst := &InstanceStmt{Label: label, EntityName: entName, Pos: p.Cur().Pos}
	if p.Accept(lex.Keyword, "generic") {
		p.Expect(lex.Keyword, "map")
		p.Expect(TokOp, "(")
		inst.Generics = p.parseAssocList()
		p.Expect(TokOp, ")")
	}
	if p.Accept(lex.Keyword, "port") {
		p.Expect(lex.Keyword, "map")
		p.Expect(TokOp, "(")
		inst.Ports = p.parseAssocList()
		p.Expect(TokOp, ")")
	}
	p.Expect(TokOp, ";")
	return inst
}

func (p *Parser) parseAssocList() []Assoc {
	var out []Assoc
	for !p.Is(TokOp, ")") && !p.At(lex.EOF) {
		pos := p.Cur().Pos
		// Formal => actual, if `ident =>` follows.
		if p.At(lex.Ident) && p.Peek(1).Kind == TokOp && p.Peek(1).Text == "=>" {
			formal := p.Advance().Text
			p.Advance() // =>
			out = append(out, Assoc{Formal: formal, Actual: p.parseExpr(), Pos: pos})
		} else {
			out = append(out, Assoc{Actual: p.parseExpr(), Pos: pos})
		}
		if !p.Accept(TokOp, ",") {
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
			if p.Is(lex.Keyword, s) {
				return true
			}
		}
		return p.At(lex.EOF)
	}
	for !atStop() {
		before := p.Consumed()
		if st := p.parseStmt(); st != nil {
			out = append(out, st)
		}
		if p.Consumed() == before {
			p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q; expecting a statement", p.Cur().Text)
			p.Advance()
		}
	}
	return out
}

func (p *Parser) parseStmt() Stmt {
	t := p.Cur()
	switch {
	case p.Is(lex.Keyword, "if"):
		return p.parseIf()
	case p.Is(lex.Keyword, "case"):
		return p.parseCase()
	case p.Is(lex.Keyword, "for"):
		return p.parseFor()
	case p.Is(lex.Keyword, "while"):
		p.Advance()
		cond := p.parseExpr()
		p.Expect(lex.Keyword, "loop")
		body := p.parseStmtsUntil("end")
		p.Expect(lex.Keyword, "end")
		p.Expect(lex.Keyword, "loop")
		p.Expect(TokOp, ";")
		return &WhileStmt{Cond: cond, Body: body, Pos: t.Pos}
	case p.Is(lex.Keyword, "wait"):
		return p.parseWait()
	case p.Is(lex.Keyword, "assert"):
		return p.parseAssert()
	case p.Is(lex.Keyword, "report"):
		p.Advance()
		msg := p.parseExpr()
		sev := ""
		if p.Accept(lex.Keyword, "severity") {
			sev, _, _ = p.ExpectIdent("severity level")
		}
		p.Expect(TokOp, ";")
		return &ReportStmt{Message: msg, Severity: sev, Pos: t.Pos}
	case p.Is(lex.Keyword, "null"):
		p.Advance()
		p.Expect(TokOp, ";")
		return &NullStmt{Pos: t.Pos}
	case p.Is(lex.Keyword, "exit"):
		p.Advance()
		var when Expr
		if p.Accept(lex.Keyword, "when") {
			when = p.parseExpr()
		}
		p.Expect(TokOp, ";")
		return &ExitStmt{When: when, Pos: t.Pos}
	case p.At(lex.Ident):
		target := p.parseNameExpr()
		switch {
		case p.Accept(TokOp, "<="):
			val := p.parseExpr()
			var after Expr
			if p.Accept(lex.Keyword, "after") {
				after = p.parseTimeExpr()
			}
			p.Expect(TokOp, ";")
			return &SigAssign{Target: target, Value: val, AfterNs: after, Pos: t.Pos}
		case p.Accept(TokOp, ":="):
			val := p.parseExpr()
			p.Expect(TokOp, ";")
			return &VarAssign{Target: target, Value: val, Pos: t.Pos}
		default:
			p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q; expecting '<=' or ':='", p.Cur().Text)
			p.syncPast(";")
			return nil
		}
	default:
		return nil
	}
}

func (p *Parser) parseIf() Stmt {
	start := p.Cur().Pos
	p.Expect(lex.Keyword, "if")
	st := &IfStmt{Pos: start}
	cond := p.parseExpr()
	p.Expect(lex.Keyword, "then")
	body := p.parseStmtsUntil("elsif", "else", "end")
	st.Branches = append(st.Branches, IfBranch{Cond: cond, Body: body})
	for p.Accept(lex.Keyword, "elsif") {
		c := p.parseExpr()
		p.Expect(lex.Keyword, "then")
		b := p.parseStmtsUntil("elsif", "else", "end")
		st.Branches = append(st.Branches, IfBranch{Cond: c, Body: b})
	}
	if p.Accept(lex.Keyword, "else") {
		st.Else = p.parseStmtsUntil("end")
	}
	p.Expect(lex.Keyword, "end")
	p.Expect(lex.Keyword, "if")
	p.Expect(TokOp, ";")
	return st
}

func (p *Parser) parseCase() Stmt {
	start := p.Cur().Pos
	p.Expect(lex.Keyword, "case")
	subject := p.parseExpr()
	p.Expect(lex.Keyword, "is")
	cs := &CaseStmt{Expr: subject, Pos: start}
	for p.Is(lex.Keyword, "when") {
		pos := p.Advance().Pos
		arm := CaseArm{Pos: pos}
		if p.Accept(lex.Keyword, "others") {
			arm.Choices = nil
		} else {
			for {
				arm.Choices = append(arm.Choices, p.parseExpr())
				if !p.Accept(TokOp, "|") {
					break
				}
			}
		}
		p.Expect(TokOp, "=>")
		arm.Body = p.parseStmtsUntil("when", "end")
		cs.Arms = append(cs.Arms, arm)
	}
	p.Expect(lex.Keyword, "end")
	p.Expect(lex.Keyword, "case")
	p.Expect(TokOp, ";")
	return cs
}

func (p *Parser) parseFor() Stmt {
	start := p.Cur().Pos
	p.Expect(lex.Keyword, "for")
	v, _, ok := p.ExpectIdent("loop variable")
	if !ok {
		p.syncPast(";")
		return nil
	}
	p.Expect(lex.Keyword, "in")
	left := p.parseExpr()
	desc := false
	switch {
	case p.Accept(lex.Keyword, "to"):
	case p.Accept(lex.Keyword, "downto"):
		desc = true
	default:
		p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q; expecting 'to' or 'downto'", p.Cur().Text)
	}
	right := p.parseExpr()
	p.Expect(lex.Keyword, "loop")
	body := p.parseStmtsUntil("end")
	p.Expect(lex.Keyword, "end")
	p.Expect(lex.Keyword, "loop")
	p.Expect(TokOp, ";")
	return &ForStmt{Var: v, Left: left, Right: right, Descending: desc, Body: body, Pos: start}
}

func (p *Parser) parseWait() Stmt {
	start := p.Advance().Pos // wait
	w := &WaitStmt{Pos: start}
	switch {
	case p.Accept(lex.Keyword, "for"):
		w.ForNs = p.parseTimeExpr()
	case p.Accept(lex.Keyword, "until"):
		w.Until = p.parseExpr()
		if p.Accept(lex.Keyword, "for") {
			w.ForNs = p.parseTimeExpr()
		}
	case p.Accept(lex.Keyword, "on"):
		for {
			w.OnSignals = append(w.OnSignals, p.parseNameExpr())
			if !p.Accept(TokOp, ",") {
				break
			}
		}
	default:
		w.Forever = true
	}
	p.Expect(TokOp, ";")
	return w
}

func (p *Parser) parseAssert() Stmt {
	start := p.Advance().Pos // assert
	a := &AssertStmt{Pos: start}
	a.Cond = p.parseExpr()
	if p.Accept(lex.Keyword, "report") {
		a.Report = p.parseExpr()
	}
	if p.Accept(lex.Keyword, "severity") {
		sev, _, _ := p.ExpectIdent("severity level")
		a.Severity = sev
	}
	p.Expect(TokOp, ";")
	return a
}

// ---------------------------------------------------------------- exprs

// VHDL operator precedence, loosest to tightest:
// logical < relational < shift < adding < multiplying < unary ** not

func (p *Parser) parseExpr() Expr { return p.parseLogical() }

func (p *Parser) parseLogical() Expr {
	left := p.parseRelational()
	for {
		t := p.Cur()
		if t.Kind != lex.Keyword {
			return left
		}
		switch t.Text {
		case "and", "or", "xor", "nand", "nor", "xnor":
			p.Advance()
			right := p.parseRelational()
			left = &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
		default:
			return left
		}
	}
}

func (p *Parser) parseRelational() Expr {
	left := p.parseShift()
	t := p.Cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "=", "/=", "<", "<=", ">", ">=":
			p.Advance()
			right := p.parseShift()
			return &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
		}
	}
	return left
}

func (p *Parser) parseShift() Expr {
	left := p.parseAdding()
	t := p.Cur()
	if t.Kind == lex.Keyword && (t.Text == "sll" || t.Text == "srl") {
		p.Advance()
		right := p.parseAdding()
		return &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
	}
	return left
}

func (p *Parser) parseAdding() Expr {
	left := p.parseMultiplying()
	for {
		t := p.Cur()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-" || t.Text == "&") {
			p.Advance()
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
		t := p.Cur()
		if (t.Kind == TokOp && (t.Text == "*" || t.Text == "/" || t.Text == "**")) ||
			(t.Kind == lex.Keyword && (t.Text == "mod" || t.Text == "rem")) {
			p.Advance()
			right := p.parseUnary()
			left = &BinaryExpr{Op: t.Text, L: left, R: right, Pos: t.Pos}
			continue
		}
		return left
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.Cur()
	if t.Kind == lex.Keyword && t.Text == "not" {
		p.Advance()
		return &UnaryExpr{Op: "not", X: p.parseUnary(), Pos: t.Pos}
	}
	if t.Kind == TokOp && (t.Text == "-" || t.Text == "+") {
		p.Advance()
		return &UnaryExpr{Op: t.Text, X: p.parseUnary(), Pos: t.Pos}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() Expr {
	t := p.Cur()
	switch {
	case t.Kind == TokInt:
		p.Advance()
		var v int64
		for _, r := range t.Text {
			v = v*10 + int64(r-'0')
		}
		return &IntLit{Value: v, Pos: t.Pos}
	case t.Kind == TokChar:
		p.Advance()
		r, _ := utf8.DecodeRuneInString(t.Text)
		return &CharLit{Value: hdl.LogicFromRune(r), Raw: t.Text, Pos: t.Pos}
	case t.Kind == TokBitStr:
		p.Advance()
		kind := t.Text[0]
		body := t.Text[2:]
		v, err := hdl.ParseVHDLBitString(kind, body)
		if err != nil {
			p.Errorf(t.Pos, "VRFC 10-4", "malformed bit string: %v", err)
			v = hdl.XFill(1)
		}
		return &BitStrLit{Value: v, Raw: body, Pos: t.Pos}
	case t.Kind == TokString:
		p.Advance()
		return &StrLit{Value: t.Text, Pos: t.Pos}
	case t.Kind == lex.Keyword && (t.Text == "true" || t.Text == "false"):
		p.Advance()
		return &BoolLit{Value: t.Text == "true", Pos: t.Pos}
	case t.Kind == lex.Keyword && t.Text == "others":
		// Bare inside aggregates only; handled below.
		p.Errorf(t.Pos, "VRFC 10-1", "'others' is only valid inside an aggregate")
		p.Advance()
		return &IntLit{Pos: t.Pos}
	case t.Kind == lex.Ident:
		return p.parseNameExpr()
	case p.Is(TokOp, "("):
		pos := p.Advance().Pos
		// Aggregate (others => x)?
		if p.Is(lex.Keyword, "others") {
			p.Advance()
			p.Expect(TokOp, "=>")
			v := p.parseExpr()
			p.Expect(TokOp, ")")
			return &AggregateExpr{Others: v, Pos: pos}
		}
		e := p.parseExpr()
		p.Expect(TokOp, ")")
		return e
	default:
		p.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting an expression", t.Text)
		p.Advance()
		return &IntLit{Pos: t.Pos}
	}
}

// parseNameExpr parses ident, ident(args), ident(l downto r), ident'attr.
func (p *Parser) parseNameExpr() Expr {
	t := p.Cur()
	if t.Kind != lex.Ident {
		p.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting a name", t.Text)
		p.Advance()
		return &Name{Ident: "_err_", Pos: t.Pos}
	}
	p.Advance()
	name := t.Text
	// Attribute?
	if p.Is(TokOp, "'") && p.Peek(1).Kind == lex.Keyword {
		p.Advance()
		attr := p.Advance().Text
		return &AttrExpr{Base: name, Attr: attr, Pos: t.Pos}
	}
	if !p.Is(TokOp, "(") {
		return &Name{Ident: name, Pos: t.Pos}
	}
	p.Advance() // (
	ci := &CallOrIndex{Name: name, Pos: t.Pos}
	// Slice: expr downto/to expr
	first := p.parseExpr()
	switch {
	case p.Accept(lex.Keyword, "downto"):
		ci.IsSlice, ci.Descending = true, true
		ci.Left = first
		ci.Right = p.parseExpr()
	case p.Accept(lex.Keyword, "to"):
		ci.IsSlice, ci.Descending = true, false
		ci.Left = first
		ci.Right = p.parseExpr()
	default:
		ci.Args = append(ci.Args, first)
		for p.Accept(TokOp, ",") {
			ci.Args = append(ci.Args, p.parseExpr())
		}
	}
	p.Expect(TokOp, ")")
	return ci
}
