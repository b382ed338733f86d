package verilog

import (
	"fmt"
	"strings"

	"repro/internal/diag"
	"repro/internal/hdl"
)

// Parser is a recursive-descent parser for the supported Verilog subset.
// It recovers from errors at statement/item boundaries so a single pass
// reports multiple diagnostics, the behaviour the Review Agent depends on.
// It pulls tokens from a Lexer through a three-token window (peekTok(2)
// is the deepest lookahead, and the parser never backtracks), so no
// token slice is built.
type Parser struct {
	lx    Lexer
	la    [3]Token // lookahead window: la[0] is the current token
	nla   int      // tokens held in la, 1 to 3
	pos   int      // tokens consumed so far
	file  string
	diags diag.List
}

// Parse parses src (logical file name used in diagnostics) and returns
// the AST along with all diagnostics gathered. The AST may be partial
// when diags contains errors.
func Parse(file, src string) (*SourceFile, diag.List) {
	p := &Parser{lx: *NewLexer(src), nla: 1, file: file}
	p.la[0] = p.lx.Next()
	sf := &SourceFile{}
	for !p.at(TokEOF) {
		if p.atKeyword("module") {
			if m := p.parseModule(); m != nil {
				sf.Modules = append(sf.Modules, m)
			}
			continue
		}
		p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q; expecting 'module'", p.cur().Text)
		p.advance()
	}
	p.diags.AttachSnippets(src)
	return sf, p.diags
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
	t := p.cur()
	return t.Kind == TokOp && t.Text == op
}

func (p *Parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
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

// syncTo skips tokens until one of the stop operators/keywords (consumed
// when it is an op), giving statement-level error recovery.
func (p *Parser) syncTo(stops ...string) {
	for !p.at(TokEOF) {
		t := p.cur()
		for _, s := range stops {
			if (t.Kind == TokOp || t.Kind == TokKeyword) && t.Text == s {
				if t.Kind == TokOp {
					p.advance()
				}
				return
			}
		}
		p.advance()
	}
}

// ---------------------------------------------------------------- module

func (p *Parser) parseModule() *Module {
	start := p.cur().Pos
	p.expectKeyword("module")
	name, _, ok := p.expectIdent("module name")
	if !ok {
		p.syncTo("endmodule")
		p.acceptKeyword("endmodule")
		return nil
	}
	m := &Module{Name: name, Pos: start}
	// Optional parameter port list #( parameter N = 8, ... )
	if p.acceptOp("#") {
		if p.expectOp("(") {
			for !p.atOp(")") && !p.at(TokEOF) {
				if p.acceptKeyword("parameter") {
					p.parseParamAssignList(m, false)
				} else {
					p.advance()
				}
				p.acceptOp(",")
			}
			p.expectOp(")")
		}
	}
	if p.acceptOp("(") {
		p.parsePortList(m)
		p.expectOp(")")
	}
	p.expectOp(";")
	for !p.atKeyword("endmodule") && !p.at(TokEOF) {
		before := p.pos
		p.parseModuleItem(m)
		if p.pos == before { // no progress: skip a token to avoid livelock
			p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q", p.cur().Text)
			p.advance()
		}
	}
	if !p.acceptKeyword("endmodule") {
		p.errorf(p.cur().Pos, "VRFC 10-2", "module %q missing 'endmodule'", name)
	}
	return m
}

// parsePortList handles both ANSI (input wire a, output reg [3:0] b) and
// non-ANSI (a, b, c) port headers.
func (p *Parser) parsePortList(m *Module) {
	for !p.atOp(")") && !p.at(TokEOF) {
		switch {
		case p.atKeyword("input") || p.atKeyword("output") || p.atKeyword("inout"):
			dirTok := p.advance()
			dir := DirInput
			switch dirTok.Text {
			case "output":
				dir = DirOutput
			case "inout":
				dir = DirInout
			}
			isReg := p.acceptKeyword("reg")
			if !isReg {
				p.acceptKeyword("wire")
			}
			signed := p.acceptKeyword("signed")
			var rng *Range
			if p.atOp("[") {
				rng = p.parseRange()
			}
			// One or more names share this header chunk until the next
			// direction keyword or ')'.
			for {
				nm, pos, ok := p.expectIdent("port name")
				if !ok {
					p.syncTo(",", ")")
					break
				}
				m.Ports = append(m.Ports, &Port{Name: nm, Dir: dir, IsReg: isReg, Signed: signed, Range: rng, Pos: pos})
				if !p.acceptOp(",") {
					break
				}
				if p.atKeyword("input") || p.atKeyword("output") || p.atKeyword("inout") {
					break
				}
			}
		case p.at(TokIdent):
			// Non-ANSI port name; direction comes from body declarations.
			t := p.advance()
			m.Ports = append(m.Ports, &Port{Name: t.Text, Dir: DirInout, Range: nil, Pos: t.Pos})
			p.acceptOp(",")
		default:
			p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error in port list near %q", p.cur().Text)
			p.advance()
		}
	}
}

func (p *Parser) parseRange() *Range {
	p.expectOp("[")
	msb := p.parseExpr()
	p.expectOp(":")
	lsb := p.parseExpr()
	p.expectOp("]")
	return &Range{MSB: msb, LSB: lsb}
}

func (p *Parser) parseParamAssignList(m *Module, local bool) {
	for {
		// Optional range after keyword: parameter [3:0] P = ...
		if p.atOp("[") {
			p.parseRange()
		}
		name, pos, ok := p.expectIdent("parameter name")
		if !ok {
			p.syncTo(";", ")")
			return
		}
		var val Expr
		if p.expectOp("=") {
			val = p.parseExpr()
		}
		m.Items = append(m.Items, &ParamDecl{Name: name, Value: val, IsLocal: local, Pos: pos})
		if !p.atOp(",") {
			return
		}
		// Lookahead: `, parameter` (header form) stops here.
		if p.peekTok(1).Kind == TokKeyword {
			return
		}
		p.advance() // consume comma
	}
}

// ------------------------------------------------------------ module items

func (p *Parser) parseModuleItem(m *Module) {
	t := p.cur()
	switch {
	case p.atKeyword("input") || p.atKeyword("output") || p.atKeyword("inout"):
		p.parseBodyPortDecl(m)
	case p.atKeyword("wire"):
		p.advance()
		p.parseNetDecl(m, KindWire, t.Pos)
	case p.atKeyword("reg"):
		p.advance()
		p.parseNetDecl(m, KindReg, t.Pos)
	case p.atKeyword("integer") || p.atKeyword("genvar"):
		p.advance()
		p.parseNetDecl(m, KindInteger, t.Pos)
	case p.atKeyword("parameter"):
		p.advance()
		p.parseParamAssignList(m, false)
		p.expectOp(";")
	case p.atKeyword("localparam"):
		p.advance()
		p.parseParamAssignList(m, true)
		p.expectOp(";")
	case p.atKeyword("assign"):
		p.advance()
		for {
			lhs := p.parseLValue()
			p.expectOp("=")
			rhs := p.parseExpr()
			m.Items = append(m.Items, &ContAssign{LHS: lhs, RHS: rhs, Pos: t.Pos})
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(";")
	case p.atKeyword("always"):
		p.advance()
		var sens *SensList
		if p.acceptOp("@") {
			sens = p.parseSensList()
		}
		body := p.parseStmt()
		m.Items = append(m.Items, &AlwaysBlock{Sens: sens, Body: body, Pos: t.Pos})
	case p.atKeyword("initial"):
		p.advance()
		body := p.parseStmt()
		m.Items = append(m.Items, &InitialBlock{Body: body, Pos: t.Pos})
	case p.atKeyword("generate"):
		p.advance() // transparent: contents parsed as normal items
	case p.atKeyword("endgenerate"):
		p.advance()
	case p.atKeyword("function") || p.atKeyword("task"):
		kw := p.advance().Text
		p.errorf(t.Pos, "VRFC 10-3", "%ss are not supported by this tool subset", kw)
		p.syncTo("end" + kw)
		p.acceptKeyword("end" + kw)
	case p.at(TokIdent):
		p.parseInstance(m)
	case p.atOp(";"):
		p.advance()
	default:
		p.errorf(t.Pos, "VRFC 10-1", "syntax error near %q in module body", t.Text)
		p.advance()
		p.syncTo(";", "endmodule")
	}
}

// parseBodyPortDecl handles non-ANSI style `input [3:0] a;` in the body.
func (p *Parser) parseBodyPortDecl(m *Module) {
	dirTok := p.advance()
	dir := DirInput
	switch dirTok.Text {
	case "output":
		dir = DirOutput
	case "inout":
		dir = DirInout
	}
	isReg := p.acceptKeyword("reg")
	if !isReg {
		p.acceptKeyword("wire")
	}
	signed := p.acceptKeyword("signed")
	var rng *Range
	if p.atOp("[") {
		rng = p.parseRange()
	}
	for {
		nm, pos, ok := p.expectIdent("port name")
		if !ok {
			p.syncTo(";")
			return
		}
		// Update a port declared in the non-ANSI header, or add.
		found := false
		for _, pt := range m.Ports {
			if pt.Name == nm {
				pt.Dir, pt.IsReg, pt.Signed, pt.Range = dir, isReg, signed, rng
				found = true
				break
			}
		}
		if !found {
			m.Ports = append(m.Ports, &Port{Name: nm, Dir: dir, IsReg: isReg, Signed: signed, Range: rng, Pos: pos})
		}
		if !p.acceptOp(",") {
			break
		}
	}
	p.expectOp(";")
}

func (p *Parser) parseNetDecl(m *Module, kind NetKind, pos Pos) {
	signed := p.acceptKeyword("signed")
	var rng *Range
	if p.atOp("[") {
		rng = p.parseRange()
	}
	decl := &NetDecl{Kind: kind, Signed: signed, Range: rng, Pos: pos}
	for {
		nm, npos, ok := p.expectIdent("identifier")
		if !ok {
			p.syncTo(";")
			return
		}
		dn := DeclName{Name: nm, Pos: npos}
		if p.atOp("[") { // memory dimension
			dn.Array = p.parseRange()
		}
		if p.acceptOp("=") {
			dn.Init = p.parseExpr()
		}
		decl.Names = append(decl.Names, dn)
		if !p.acceptOp(",") {
			break
		}
	}
	p.expectOp(";")
	m.Items = append(m.Items, decl)
}

func (p *Parser) parseInstance(m *Module) {
	modTok := p.advance() // module type name
	inst := &Instance{ModuleName: modTok.Text, Pos: modTok.Pos}
	if p.acceptOp("#") {
		p.expectOp("(")
		inst.Params = p.parseConnList()
		p.expectOp(")")
	}
	nm, _, ok := p.expectIdent("instance name")
	if !ok {
		p.syncTo(";")
		return
	}
	inst.InstName = nm
	if p.expectOp("(") {
		inst.Conns = p.parseConnList()
		p.expectOp(")")
	}
	p.expectOp(";")
	m.Items = append(m.Items, inst)
}

func (p *Parser) parseConnList() []Connection {
	var conns []Connection
	for !p.atOp(")") && !p.at(TokEOF) {
		pos := p.cur().Pos
		if p.acceptOp(".") {
			nm, _, ok := p.expectIdent("port name")
			if !ok {
				p.syncTo(",", ")")
				continue
			}
			var ex Expr
			if p.expectOp("(") {
				if !p.atOp(")") {
					ex = p.parseExpr()
				}
				p.expectOp(")")
			}
			conns = append(conns, Connection{Name: nm, Expr: ex, Pos: pos})
		} else {
			conns = append(conns, Connection{Expr: p.parseExpr(), Pos: pos})
		}
		if !p.acceptOp(",") {
			break
		}
	}
	return conns
}

func (p *Parser) parseSensList() *SensList {
	sl := &SensList{}
	if p.acceptOp("*") {
		sl.Star = true
		return sl
	}
	if !p.expectOp("(") {
		return sl
	}
	if p.acceptOp("*") {
		sl.Star = true
		p.expectOp(")")
		return sl
	}
	for {
		item := SensItem{Edge: EdgeLevel}
		if p.acceptKeyword("posedge") {
			item.Edge = EdgePos
		} else if p.acceptKeyword("negedge") {
			item.Edge = EdgeNeg
		}
		item.Sig = p.parseExpr()
		sl.Items = append(sl.Items, item)
		if p.acceptKeyword("or") || p.acceptOp(",") {
			continue
		}
		break
	}
	p.expectOp(")")
	return sl
}

// ---------------------------------------------------------------- stmts

func (p *Parser) parseStmt() Stmt {
	t := p.cur()
	switch {
	case p.atKeyword("begin"):
		p.advance()
		blk := &Block{Pos: t.Pos}
		if p.acceptOp(":") {
			nm, _, _ := p.expectIdent("block label")
			blk.Name = nm
		}
		for !p.atKeyword("end") && !p.at(TokEOF) && !p.atKeyword("endmodule") {
			before := p.pos
			blk.Stmts = append(blk.Stmts, p.parseStmt())
			if p.pos == before {
				p.advance()
			}
		}
		if !p.acceptKeyword("end") {
			p.errorf(t.Pos, "VRFC 10-2", "'begin' block missing matching 'end'")
		}
		return blk
	case p.atKeyword("if"):
		p.advance()
		p.expectOp("(")
		cond := p.parseExpr()
		p.expectOp(")")
		then := p.parseStmt()
		var els Stmt
		if p.acceptKeyword("else") {
			els = p.parseStmt()
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: t.Pos}
	case p.atKeyword("case") || p.atKeyword("casez") || p.atKeyword("casex"):
		return p.parseCase()
	case p.atKeyword("for"):
		p.advance()
		p.expectOp("(")
		init := p.parseSimpleAssign()
		p.expectOp(";")
		cond := p.parseExpr()
		p.expectOp(";")
		step := p.parseSimpleAssign()
		p.expectOp(")")
		body := p.parseStmt()
		return &For{Init: init, Cond: cond, Step: step, Body: body, Pos: t.Pos}
	case p.atKeyword("while"):
		p.advance()
		p.expectOp("(")
		cond := p.parseExpr()
		p.expectOp(")")
		return &While{Cond: cond, Body: p.parseStmt(), Pos: t.Pos}
	case p.atKeyword("repeat"):
		p.advance()
		p.expectOp("(")
		n := p.parseExpr()
		p.expectOp(")")
		return &Repeat{Count: n, Body: p.parseStmt(), Pos: t.Pos}
	case p.atKeyword("forever"):
		p.advance()
		return &Forever{Body: p.parseStmt(), Pos: t.Pos}
	case p.atKeyword("wait"):
		p.advance()
		p.expectOp("(")
		cond := p.parseExpr()
		p.expectOp(")")
		var body Stmt = &Null{Pos: t.Pos}
		if p.atOp(";") {
			p.advance()
		} else {
			body = p.parseStmt()
		}
		return &WaitStmt{Cond: cond, Body: body, Pos: t.Pos}
	case p.atOp("#"):
		p.advance()
		amt := p.parsePrimary()
		var body Stmt = &Null{Pos: t.Pos}
		if !p.atOp(";") {
			body = p.parseStmt()
		} else {
			p.advance()
		}
		return &DelayStmt{Amount: amt, Body: body, Pos: t.Pos}
	case p.atOp("@"):
		p.advance()
		sens := p.parseSensList()
		var body Stmt = &Null{Pos: t.Pos}
		if p.atOp(";") {
			p.advance()
		} else {
			body = p.parseStmt()
		}
		return &EventWait{Sens: sens, Body: body, Pos: t.Pos}
	case p.at(TokSysName):
		return p.parseSysCall()
	case p.atOp(";"):
		p.advance()
		return &Null{Pos: t.Pos}
	case p.at(TokIdent) || p.atOp("{"):
		st := p.parseSimpleAssign()
		p.expectOp(";")
		return st
	default:
		p.errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting a statement", t.Text)
		p.advance()
		p.syncTo(";", "end")
		return &Null{Pos: t.Pos}
	}
}

// parseLValue parses an assignment target: an identifier with optional
// bit/part selects, or a concatenation of lvalues. Using a restricted
// grammar here keeps `<=` unambiguous between nonblocking assignment and
// the relational operator.
func (p *Parser) parseLValue() Expr {
	t := p.cur()
	if p.atOp("{") {
		pos := p.advance().Pos
		cat := &ConcatExpr{Pos: pos}
		for {
			cat.Parts = append(cat.Parts, p.parseLValue())
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp("}")
		return cat
	}
	if t.Kind != TokIdent {
		p.errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting an assignment target", t.Text)
		p.advance()
		return &Ident{Name: "_err_", Pos: t.Pos}
	}
	p.advance()
	var e Expr = &Ident{Name: t.Text, Pos: t.Pos}
	for p.atOp("[") {
		pos := p.advance().Pos
		first := p.parseExpr()
		if p.acceptOp(":") {
			second := p.parseExpr()
			p.expectOp("]")
			e = &PartSelect{Base: e, MSB: first, LSB: second, Pos: pos}
		} else {
			p.expectOp("]")
			e = &Index{Base: e, Idx: first, Pos: pos}
		}
	}
	return e
}

// parseSimpleAssign parses `lhs = rhs` or `lhs <= rhs` without the
// trailing semicolon (shared by for-loop headers and plain statements).
func (p *Parser) parseSimpleAssign() Stmt {
	t := p.cur()
	lhs := p.parseLValue()
	blocking := true
	switch {
	case p.acceptOp("="):
	case p.acceptOp("<="):
		blocking = false
	default:
		p.errorf(p.cur().Pos, "VRFC 10-1", "syntax error near %q; expecting '=' or '<='", p.cur().Text)
		return &Null{Pos: t.Pos}
	}
	// Optional intra-assignment delay: x = #5 y;
	if p.acceptOp("#") {
		p.parsePrimary()
	}
	rhs := p.parseExpr()
	return &Assign{LHS: lhs, RHS: rhs, Blocking: blocking, Pos: t.Pos}
}

func (p *Parser) parseCase() Stmt {
	t := p.advance()
	kind := CaseExact
	switch t.Text {
	case "casez":
		kind = CaseZ
	case "casex":
		kind = CaseX
	}
	p.expectOp("(")
	subject := p.parseExpr()
	p.expectOp(")")
	cs := &Case{Kind: kind, Expr: subject, Pos: t.Pos}
	for !p.atKeyword("endcase") && !p.at(TokEOF) && !p.atKeyword("endmodule") {
		itemPos := p.cur().Pos
		var item CaseItem
		item.Pos = itemPos
		if p.acceptKeyword("default") {
			p.acceptOp(":")
		} else {
			for {
				item.Exprs = append(item.Exprs, p.parseExpr())
				if !p.acceptOp(",") {
					break
				}
			}
			p.expectOp(":")
		}
		item.Body = p.parseStmt()
		cs.Items = append(cs.Items, item)
	}
	if !p.acceptKeyword("endcase") {
		p.errorf(t.Pos, "VRFC 10-2", "'case' missing matching 'endcase'")
	}
	return cs
}

func (p *Parser) parseSysCall() Stmt {
	t := p.advance()
	call := &SysCall{Name: t.Text, Pos: t.Pos}
	if p.acceptOp("(") {
		for !p.atOp(")") && !p.at(TokEOF) {
			call.Args = append(call.Args, p.parseExpr())
			if !p.acceptOp(",") {
				break
			}
		}
		p.expectOp(")")
	}
	p.expectOp(";")
	return call
}

// ---------------------------------------------------------------- exprs

// binaryPrec returns precedence for infix operators; higher binds tighter.
func binaryPrec(op string) int {
	switch op {
	case "**":
		return 12
	case "*", "/", "%":
		return 11
	case "+", "-":
		return 10
	case "<<", ">>", "<<<", ">>>":
		return 9
	case "<", "<=", ">", ">=":
		return 8
	case "==", "!=", "===", "!==":
		return 7
	case "&":
		return 6
	case "^", "~^", "^~":
		return 5
	case "|":
		return 4
	case "&&":
		return 3
	case "||":
		return 2
	}
	return 0
}

func (p *Parser) parseExpr() Expr { return p.parseTernary() }

func (p *Parser) parseTernary() Expr {
	cond := p.parseBinary(1)
	if p.atOp("?") {
		pos := p.advance().Pos
		thenE := p.parseTernary()
		p.expectOp(":")
		elseE := p.parseTernary()
		return &Ternary{Cond: cond, Then: thenE, Else: elseE, Pos: pos}
	}
	return cond
}

func (p *Parser) parseBinary(minPrec int) Expr {
	left := p.parseUnary()
	for {
		t := p.cur()
		if t.Kind != TokOp {
			return left
		}
		prec := binaryPrec(t.Text)
		if prec == 0 || prec < minPrec {
			return left
		}
		op := p.advance().Text
		right := p.parseBinary(prec + 1)
		left = &Binary{Op: op, L: left, R: right, Pos: t.Pos}
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "!", "~", "-", "+", "&", "|", "^", "~&", "~|", "~^", "^~":
			p.advance()
			x := p.parseUnary()
			return &Unary{Op: t.Text, X: x, Pos: t.Pos}
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	e := p.parsePrimary()
	for p.atOp("[") {
		pos := p.advance().Pos
		first := p.parseExpr()
		if p.acceptOp(":") {
			second := p.parseExpr()
			p.expectOp("]")
			e = &PartSelect{Base: e, MSB: first, LSB: second, Pos: pos}
		} else {
			p.expectOp("]")
			e = &Index{Base: e, Idx: first, Pos: pos}
		}
	}
	return e
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		v, err := hdl.ParseVerilogLiteral(t.Text)
		if err != nil {
			p.errorf(t.Pos, "VRFC 10-4", "malformed numeric literal %q: %v", t.Text, err)
			v = hdl.XFill(32)
		}
		signed := !strings.ContainsRune(t.Text, '\'') ||
			strings.Contains(t.Text, "'s") || strings.Contains(t.Text, "'S")
		return &Number{Text: t.Text, Value: v, Signed: signed, Pos: t.Pos}
	case t.Kind == TokString:
		p.advance()
		return &StringLit{Value: t.Text, Pos: t.Pos}
	case t.Kind == TokIdent:
		p.advance()
		return &Ident{Name: t.Text, Pos: t.Pos}
	case t.Kind == TokSysName:
		p.advance()
		call := &SysFuncCall{Name: t.Text, Pos: t.Pos}
		if p.acceptOp("(") {
			for !p.atOp(")") && !p.at(TokEOF) {
				call.Args = append(call.Args, p.parseExpr())
				if !p.acceptOp(",") {
					break
				}
			}
			p.expectOp(")")
		}
		return call
	case p.atOp("("):
		p.advance()
		e := p.parseExpr()
		p.expectOp(")")
		return e
	case p.atOp("{"):
		pos := p.advance().Pos
		first := p.parseExpr()
		if p.atOp("{") { // replication {n{v}}
			p.advance()
			val := p.parseExpr()
			p.expectOp("}")
			p.expectOp("}")
			return &ReplicateExpr{Count: first, Value: val, Pos: pos}
		}
		cat := &ConcatExpr{Parts: []Expr{first}, Pos: pos}
		for p.acceptOp(",") {
			cat.Parts = append(cat.Parts, p.parseExpr())
		}
		p.expectOp("}")
		return cat
	default:
		p.errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting an expression", t.Text)
		p.advance()
		return &Number{Text: "x", Value: hdl.XFill(1), Pos: t.Pos}
	}
}

// ExprString renders an expression back to Verilog-ish text; used in
// diagnostics and agent feedback.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *Number:
		return x.Text
	case *StringLit:
		return fmt.Sprintf("%q", x.Value)
	case *Unary:
		return x.Op + ExprString(x.X)
	case *Binary:
		return "(" + ExprString(x.L) + " " + x.Op + " " + ExprString(x.R) + ")"
	case *Ternary:
		return "(" + ExprString(x.Cond) + " ? " + ExprString(x.Then) + " : " + ExprString(x.Else) + ")"
	case *ConcatExpr:
		s := "{"
		for i, pt := range x.Parts {
			if i > 0 {
				s += ", "
			}
			s += ExprString(pt)
		}
		return s + "}"
	case *ReplicateExpr:
		return "{" + ExprString(x.Count) + "{" + ExprString(x.Value) + "}}"
	case *Index:
		return ExprString(x.Base) + "[" + ExprString(x.Idx) + "]"
	case *PartSelect:
		return ExprString(x.Base) + "[" + ExprString(x.MSB) + ":" + ExprString(x.LSB) + "]"
	case *SysFuncCall:
		return x.Name
	default:
		return "?"
	}
}
