package verilog

import (
	"fmt"
	"strings"

	"repro/internal/diag"
	"repro/internal/hdl"
	"repro/internal/lex"
)

// Parser is a recursive-descent parser for the supported Verilog subset.
// It recovers from errors at statement/item boundaries so a single pass
// reports multiple diagnostics, the behaviour the Review Agent depends on.
// It reads the tokens of its Lexer through a lex.Stream.
type Parser struct {
	lex.Stream
	lx Lexer
}

// Parse parses src (logical file name used in diagnostics) and returns
// the AST along with all diagnostics gathered. The AST may be partial
// when diags contains errors.
func Parse(file, src string) (*SourceFile, diag.List) {
	p := &Parser{lx: Lexer{Cursor: lex.NewCursor(src)}}
	if p.Start(file, len(src)) {
		p.Fill(p.lx.Next())
	}
	sf := &SourceFile{}
	for !p.At(lex.EOF) {
		if p.Is(lex.Keyword, "module") {
			if m := p.parseModule(); m != nil {
				sf.Modules = append(sf.Modules, m)
			}
			continue
		}
		p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q; expecting 'module'", p.Cur().Text)
		p.Advance()
	}
	p.Diags.AttachSnippets(src)
	return sf, p.Diags
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

// syncTo skips tokens until one of the stop operators/keywords (consumed
// when it is an op), giving statement-level error recovery.
func (p *Parser) syncTo(stops ...string) {
	for !p.At(lex.EOF) {
		t := p.Cur()
		for _, s := range stops {
			if (t.Kind == TokOp || t.Kind == lex.Keyword) && t.Text == s {
				if t.Kind == TokOp {
					p.Advance()
				}
				return
			}
		}
		p.Advance()
	}
}

// ---------------------------------------------------------------- module

func (p *Parser) parseModule() *Module {
	start := p.Cur().Pos
	p.Expect(lex.Keyword, "module")
	name, _, ok := p.ExpectIdent("module name")
	if !ok {
		p.syncTo("endmodule")
		p.Accept(lex.Keyword, "endmodule")
		return nil
	}
	m := &Module{Name: name, Pos: start}
	// Optional parameter port list #( parameter N = 8, ... )
	if p.Accept(TokOp, "#") {
		if p.Expect(TokOp, "(") {
			for !p.Is(TokOp, ")") && !p.At(lex.EOF) {
				if p.Accept(lex.Keyword, "parameter") {
					p.parseParamAssignList(m, false)
				} else {
					p.Advance()
				}
				p.Accept(TokOp, ",")
			}
			p.Expect(TokOp, ")")
		}
	}
	if p.Accept(TokOp, "(") {
		p.parsePortList(m)
		p.Expect(TokOp, ")")
	}
	p.Expect(TokOp, ";")
	for !p.Is(lex.Keyword, "endmodule") && !p.At(lex.EOF) {
		before := p.Consumed()
		p.parseModuleItem(m)
		if p.Consumed() == before { // no progress: skip a token to avoid livelock
			p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q", p.Cur().Text)
			p.Advance()
		}
	}
	if !p.Accept(lex.Keyword, "endmodule") {
		p.Errorf(p.Cur().Pos, "VRFC 10-2", "module %q missing 'endmodule'", name)
	}
	return m
}

// parsePortList handles both ANSI (input wire a, output reg [3:0] b) and
// non-ANSI (a, b, c) port headers.
func (p *Parser) parsePortList(m *Module) {
	for !p.Is(TokOp, ")") && !p.At(lex.EOF) {
		switch {
		case p.Is(lex.Keyword, "input") || p.Is(lex.Keyword, "output") || p.Is(lex.Keyword, "inout"):
			dirTok := p.Advance()
			dir := DirInput
			switch dirTok.Text {
			case "output":
				dir = DirOutput
			case "inout":
				dir = DirInout
			}
			isReg := p.Accept(lex.Keyword, "reg")
			if !isReg {
				p.Accept(lex.Keyword, "wire")
			}
			signed := p.Accept(lex.Keyword, "signed")
			var rng *Range
			if p.Is(TokOp, "[") {
				rng = p.parseRange()
			}
			// One or more names share this header chunk until the next
			// direction keyword or ')'.
			for {
				nm, pos, ok := p.ExpectIdent("port name")
				if !ok {
					p.syncTo(",", ")")
					break
				}
				m.Ports = append(m.Ports, &Port{Name: nm, Dir: dir, IsReg: isReg, Signed: signed, Range: rng, Pos: pos})
				if !p.Accept(TokOp, ",") {
					break
				}
				if p.Is(lex.Keyword, "input") || p.Is(lex.Keyword, "output") || p.Is(lex.Keyword, "inout") {
					break
				}
			}
		case p.At(lex.Ident):
			// Non-ANSI port name; direction comes from body declarations.
			t := p.Advance()
			m.Ports = append(m.Ports, &Port{Name: t.Text, Dir: DirInout, Range: nil, Pos: t.Pos})
			p.Accept(TokOp, ",")
		default:
			p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error in port list near %q", p.Cur().Text)
			p.Advance()
		}
	}
}

func (p *Parser) parseRange() *Range {
	p.Expect(TokOp, "[")
	msb := p.parseExpr()
	p.Expect(TokOp, ":")
	lsb := p.parseExpr()
	p.Expect(TokOp, "]")
	return &Range{MSB: msb, LSB: lsb}
}

func (p *Parser) parseParamAssignList(m *Module, local bool) {
	for {
		// Optional range after keyword: parameter [3:0] P = ...
		if p.Is(TokOp, "[") {
			p.parseRange()
		}
		name, pos, ok := p.ExpectIdent("parameter name")
		if !ok {
			p.syncTo(";", ")")
			return
		}
		var val Expr
		if p.Expect(TokOp, "=") {
			val = p.parseExpr()
		}
		m.Items = append(m.Items, &ParamDecl{Name: name, Value: val, IsLocal: local, Pos: pos})
		if !p.Is(TokOp, ",") {
			return
		}
		// Lookahead: `, parameter` (header form) stops here.
		if p.Peek(1).Kind == lex.Keyword {
			return
		}
		p.Advance() // consume comma
	}
}

// ------------------------------------------------------------ module items

func (p *Parser) parseModuleItem(m *Module) {
	t := p.Cur()
	switch {
	case p.Is(lex.Keyword, "input") || p.Is(lex.Keyword, "output") || p.Is(lex.Keyword, "inout"):
		p.parseBodyPortDecl(m)
	case p.Is(lex.Keyword, "wire"):
		p.Advance()
		p.parseNetDecl(m, KindWire, t.Pos)
	case p.Is(lex.Keyword, "reg"):
		p.Advance()
		p.parseNetDecl(m, KindReg, t.Pos)
	case p.Is(lex.Keyword, "integer") || p.Is(lex.Keyword, "genvar"):
		p.Advance()
		p.parseNetDecl(m, KindInteger, t.Pos)
	case p.Is(lex.Keyword, "parameter"):
		p.Advance()
		p.parseParamAssignList(m, false)
		p.Expect(TokOp, ";")
	case p.Is(lex.Keyword, "localparam"):
		p.Advance()
		p.parseParamAssignList(m, true)
		p.Expect(TokOp, ";")
	case p.Is(lex.Keyword, "assign"):
		p.Advance()
		for {
			lhs := p.parseLValue()
			p.Expect(TokOp, "=")
			rhs := p.parseExpr()
			m.Items = append(m.Items, &ContAssign{LHS: lhs, RHS: rhs, Pos: t.Pos})
			if !p.Accept(TokOp, ",") {
				break
			}
		}
		p.Expect(TokOp, ";")
	case p.Is(lex.Keyword, "always"):
		p.Advance()
		var sens *SensList
		if p.Accept(TokOp, "@") {
			sens = p.parseSensList()
		}
		body := p.parseStmt()
		m.Items = append(m.Items, &AlwaysBlock{Sens: sens, Body: body, Pos: t.Pos})
	case p.Is(lex.Keyword, "initial"):
		p.Advance()
		body := p.parseStmt()
		m.Items = append(m.Items, &InitialBlock{Body: body, Pos: t.Pos})
	case p.Is(lex.Keyword, "generate"):
		p.Advance() // transparent: contents parsed as normal items
	case p.Is(lex.Keyword, "endgenerate"):
		p.Advance()
	case p.Is(lex.Keyword, "function") || p.Is(lex.Keyword, "task"):
		kw := p.Advance().Text
		p.Errorf(t.Pos, "VRFC 10-3", "%ss are not supported by this tool subset", kw)
		p.syncTo("end" + kw)
		p.Accept(lex.Keyword, "end"+kw)
	case p.At(lex.Ident):
		p.parseInstance(m)
	case p.Is(TokOp, ";"):
		p.Advance()
	default:
		p.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q in module body", t.Text)
		p.Advance()
		p.syncTo(";", "endmodule")
	}
}

// parseBodyPortDecl handles non-ANSI style `input [3:0] a;` in the body.
func (p *Parser) parseBodyPortDecl(m *Module) {
	dirTok := p.Advance()
	dir := DirInput
	switch dirTok.Text {
	case "output":
		dir = DirOutput
	case "inout":
		dir = DirInout
	}
	isReg := p.Accept(lex.Keyword, "reg")
	if !isReg {
		p.Accept(lex.Keyword, "wire")
	}
	signed := p.Accept(lex.Keyword, "signed")
	var rng *Range
	if p.Is(TokOp, "[") {
		rng = p.parseRange()
	}
	for {
		nm, pos, ok := p.ExpectIdent("port name")
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
		if !p.Accept(TokOp, ",") {
			break
		}
	}
	p.Expect(TokOp, ";")
}

func (p *Parser) parseNetDecl(m *Module, kind NetKind, pos lex.Pos) {
	signed := p.Accept(lex.Keyword, "signed")
	var rng *Range
	if p.Is(TokOp, "[") {
		rng = p.parseRange()
	}
	decl := &NetDecl{Kind: kind, Signed: signed, Range: rng, Pos: pos}
	for {
		nm, npos, ok := p.ExpectIdent("identifier")
		if !ok {
			p.syncTo(";")
			return
		}
		dn := DeclName{Name: nm, Pos: npos}
		if p.Is(TokOp, "[") { // memory dimension
			dn.Array = p.parseRange()
		}
		if p.Accept(TokOp, "=") {
			dn.Init = p.parseExpr()
		}
		decl.Names = append(decl.Names, dn)
		if !p.Accept(TokOp, ",") {
			break
		}
	}
	p.Expect(TokOp, ";")
	m.Items = append(m.Items, decl)
}

func (p *Parser) parseInstance(m *Module) {
	modTok := p.Advance() // module type name
	inst := &Instance{ModuleName: modTok.Text, Pos: modTok.Pos}
	if p.Accept(TokOp, "#") {
		p.Expect(TokOp, "(")
		inst.Params = p.parseConnList()
		p.Expect(TokOp, ")")
	}
	nm, _, ok := p.ExpectIdent("instance name")
	if !ok {
		p.syncTo(";")
		return
	}
	inst.InstName = nm
	if p.Expect(TokOp, "(") {
		inst.Conns = p.parseConnList()
		p.Expect(TokOp, ")")
	}
	p.Expect(TokOp, ";")
	m.Items = append(m.Items, inst)
}

func (p *Parser) parseConnList() []Connection {
	var conns []Connection
	for !p.Is(TokOp, ")") && !p.At(lex.EOF) {
		pos := p.Cur().Pos
		if p.Accept(TokOp, ".") {
			nm, _, ok := p.ExpectIdent("port name")
			if !ok {
				p.syncTo(",", ")")
				continue
			}
			var ex Expr
			if p.Expect(TokOp, "(") {
				if !p.Is(TokOp, ")") {
					ex = p.parseExpr()
				}
				p.Expect(TokOp, ")")
			}
			conns = append(conns, Connection{Name: nm, Expr: ex, Pos: pos})
		} else {
			conns = append(conns, Connection{Expr: p.parseExpr(), Pos: pos})
		}
		if !p.Accept(TokOp, ",") {
			break
		}
	}
	return conns
}

func (p *Parser) parseSensList() *SensList {
	sl := &SensList{}
	if p.Accept(TokOp, "*") {
		sl.Star = true
		return sl
	}
	if !p.Expect(TokOp, "(") {
		return sl
	}
	if p.Accept(TokOp, "*") {
		sl.Star = true
		p.Expect(TokOp, ")")
		return sl
	}
	for {
		item := SensItem{Edge: EdgeLevel}
		if p.Accept(lex.Keyword, "posedge") {
			item.Edge = EdgePos
		} else if p.Accept(lex.Keyword, "negedge") {
			item.Edge = EdgeNeg
		}
		item.Sig = p.parseExpr()
		sl.Items = append(sl.Items, item)
		if p.Accept(lex.Keyword, "or") || p.Accept(TokOp, ",") {
			continue
		}
		break
	}
	p.Expect(TokOp, ")")
	return sl
}

// ---------------------------------------------------------------- stmts

func (p *Parser) parseStmt() Stmt {
	t := p.Cur()
	switch {
	case p.Is(lex.Keyword, "begin"):
		p.Advance()
		blk := &Block{Pos: t.Pos}
		if p.Accept(TokOp, ":") {
			nm, _, _ := p.ExpectIdent("block label")
			blk.Name = nm
		}
		for !p.Is(lex.Keyword, "end") && !p.At(lex.EOF) && !p.Is(lex.Keyword, "endmodule") {
			before := p.Consumed()
			blk.Stmts = append(blk.Stmts, p.parseStmt())
			if p.Consumed() == before {
				p.Advance()
			}
		}
		if !p.Accept(lex.Keyword, "end") {
			p.Errorf(t.Pos, "VRFC 10-2", "'begin' block missing matching 'end'")
		}
		return blk
	case p.Is(lex.Keyword, "if"):
		p.Advance()
		p.Expect(TokOp, "(")
		cond := p.parseExpr()
		p.Expect(TokOp, ")")
		then := p.parseStmt()
		var els Stmt
		if p.Accept(lex.Keyword, "else") {
			els = p.parseStmt()
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: t.Pos}
	case p.Is(lex.Keyword, "case") || p.Is(lex.Keyword, "casez") || p.Is(lex.Keyword, "casex"):
		return p.parseCase()
	case p.Is(lex.Keyword, "for"):
		p.Advance()
		p.Expect(TokOp, "(")
		init := p.parseSimpleAssign()
		p.Expect(TokOp, ";")
		cond := p.parseExpr()
		p.Expect(TokOp, ";")
		step := p.parseSimpleAssign()
		p.Expect(TokOp, ")")
		body := p.parseStmt()
		return &For{Init: init, Cond: cond, Step: step, Body: body, Pos: t.Pos}
	case p.Is(lex.Keyword, "while"):
		p.Advance()
		p.Expect(TokOp, "(")
		cond := p.parseExpr()
		p.Expect(TokOp, ")")
		return &While{Cond: cond, Body: p.parseStmt(), Pos: t.Pos}
	case p.Is(lex.Keyword, "repeat"):
		p.Advance()
		p.Expect(TokOp, "(")
		n := p.parseExpr()
		p.Expect(TokOp, ")")
		return &Repeat{Count: n, Body: p.parseStmt(), Pos: t.Pos}
	case p.Is(lex.Keyword, "forever"):
		p.Advance()
		return &Forever{Body: p.parseStmt(), Pos: t.Pos}
	case p.Is(lex.Keyword, "wait"):
		p.Advance()
		p.Expect(TokOp, "(")
		cond := p.parseExpr()
		p.Expect(TokOp, ")")
		var body Stmt = &Null{Pos: t.Pos}
		if p.Is(TokOp, ";") {
			p.Advance()
		} else {
			body = p.parseStmt()
		}
		return &WaitStmt{Cond: cond, Body: body, Pos: t.Pos}
	case p.Is(TokOp, "#"):
		p.Advance()
		amt := p.parsePrimary()
		var body Stmt = &Null{Pos: t.Pos}
		if !p.Is(TokOp, ";") {
			body = p.parseStmt()
		} else {
			p.Advance()
		}
		return &DelayStmt{Amount: amt, Body: body, Pos: t.Pos}
	case p.Is(TokOp, "@"):
		p.Advance()
		sens := p.parseSensList()
		var body Stmt = &Null{Pos: t.Pos}
		if p.Is(TokOp, ";") {
			p.Advance()
		} else {
			body = p.parseStmt()
		}
		return &EventWait{Sens: sens, Body: body, Pos: t.Pos}
	case p.At(TokSysName):
		return p.parseSysCall()
	case p.Is(TokOp, ";"):
		p.Advance()
		return &Null{Pos: t.Pos}
	case p.At(lex.Ident) || p.Is(TokOp, "{"):
		st := p.parseSimpleAssign()
		p.Expect(TokOp, ";")
		return st
	default:
		p.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting a statement", t.Text)
		p.Advance()
		p.syncTo(";", "end")
		return &Null{Pos: t.Pos}
	}
}

// parseLValue parses an assignment target: an identifier with optional
// bit/part selects, or a concatenation of lvalues. Using a restricted
// grammar here keeps `<=` unambiguous between nonblocking assignment and
// the relational operator.
func (p *Parser) parseLValue() Expr {
	t := p.Cur()
	if p.Is(TokOp, "{") {
		pos := p.Advance().Pos
		cat := &ConcatExpr{Pos: pos}
		for {
			cat.Parts = append(cat.Parts, p.parseLValue())
			if !p.Accept(TokOp, ",") {
				break
			}
		}
		p.Expect(TokOp, "}")
		return cat
	}
	if t.Kind != lex.Ident {
		p.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting an assignment target", t.Text)
		p.Advance()
		return &Ident{Name: "_err_", Pos: t.Pos}
	}
	p.Advance()
	var e Expr = &Ident{Name: t.Text, Pos: t.Pos}
	for p.Is(TokOp, "[") {
		pos := p.Advance().Pos
		first := p.parseExpr()
		if p.Accept(TokOp, ":") {
			second := p.parseExpr()
			p.Expect(TokOp, "]")
			e = &PartSelect{Base: e, MSB: first, LSB: second, Pos: pos}
		} else {
			p.Expect(TokOp, "]")
			e = &Index{Base: e, Idx: first, Pos: pos}
		}
	}
	return e
}

// parseSimpleAssign parses `lhs = rhs` or `lhs <= rhs` without the
// trailing semicolon (shared by for-loop headers and plain statements).
func (p *Parser) parseSimpleAssign() Stmt {
	t := p.Cur()
	lhs := p.parseLValue()
	blocking := true
	switch {
	case p.Accept(TokOp, "="):
	case p.Accept(TokOp, "<="):
		blocking = false
	default:
		p.Errorf(p.Cur().Pos, "VRFC 10-1", "syntax error near %q; expecting '=' or '<='", p.Cur().Text)
		return &Null{Pos: t.Pos}
	}
	// Optional intra-assignment delay: x = #5 y;
	if p.Accept(TokOp, "#") {
		p.parsePrimary()
	}
	rhs := p.parseExpr()
	return &Assign{LHS: lhs, RHS: rhs, Blocking: blocking, Pos: t.Pos}
}

func (p *Parser) parseCase() Stmt {
	t := p.Advance()
	kind := CaseExact
	switch t.Text {
	case "casez":
		kind = CaseZ
	case "casex":
		kind = CaseX
	}
	p.Expect(TokOp, "(")
	subject := p.parseExpr()
	p.Expect(TokOp, ")")
	cs := &Case{Kind: kind, Expr: subject, Pos: t.Pos}
	for !p.Is(lex.Keyword, "endcase") && !p.At(lex.EOF) && !p.Is(lex.Keyword, "endmodule") {
		itemPos := p.Cur().Pos
		var item CaseItem
		item.Pos = itemPos
		if p.Accept(lex.Keyword, "default") {
			p.Accept(TokOp, ":")
		} else {
			for {
				item.Exprs = append(item.Exprs, p.parseExpr())
				if !p.Accept(TokOp, ",") {
					break
				}
			}
			p.Expect(TokOp, ":")
		}
		item.Body = p.parseStmt()
		cs.Items = append(cs.Items, item)
	}
	if !p.Accept(lex.Keyword, "endcase") {
		p.Errorf(t.Pos, "VRFC 10-2", "'case' missing matching 'endcase'")
	}
	return cs
}

func (p *Parser) parseSysCall() Stmt {
	t := p.Advance()
	call := &SysCall{Name: t.Text, Pos: t.Pos}
	if p.Accept(TokOp, "(") {
		for !p.Is(TokOp, ")") && !p.At(lex.EOF) {
			call.Args = append(call.Args, p.parseExpr())
			if !p.Accept(TokOp, ",") {
				break
			}
		}
		p.Expect(TokOp, ")")
	}
	p.Expect(TokOp, ";")
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
	if p.Is(TokOp, "?") {
		pos := p.Advance().Pos
		thenE := p.parseTernary()
		p.Expect(TokOp, ":")
		elseE := p.parseTernary()
		return &Ternary{Cond: cond, Then: thenE, Else: elseE, Pos: pos}
	}
	return cond
}

func (p *Parser) parseBinary(minPrec int) Expr {
	left := p.parseUnary()
	for {
		t := p.Cur()
		if t.Kind != TokOp {
			return left
		}
		prec := binaryPrec(t.Text)
		if prec == 0 || prec < minPrec {
			return left
		}
		op := p.Advance().Text
		right := p.parseBinary(prec + 1)
		left = &Binary{Op: op, L: left, R: right, Pos: t.Pos}
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.Cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "!", "~", "-", "+", "&", "|", "^", "~&", "~|", "~^", "^~":
			p.Advance()
			x := p.parseUnary()
			return &Unary{Op: t.Text, X: x, Pos: t.Pos}
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	e := p.parsePrimary()
	for p.Is(TokOp, "[") {
		pos := p.Advance().Pos
		first := p.parseExpr()
		if p.Accept(TokOp, ":") {
			second := p.parseExpr()
			p.Expect(TokOp, "]")
			e = &PartSelect{Base: e, MSB: first, LSB: second, Pos: pos}
		} else {
			p.Expect(TokOp, "]")
			e = &Index{Base: e, Idx: first, Pos: pos}
		}
	}
	return e
}

func (p *Parser) parsePrimary() Expr {
	t := p.Cur()
	switch {
	case t.Kind == TokNumber:
		p.Advance()
		v, err := hdl.ParseVerilogLiteral(t.Text)
		if err != nil {
			p.Errorf(t.Pos, "VRFC 10-4", "malformed numeric literal %q: %v", t.Text, err)
			v = hdl.XFill(32)
		}
		signed := !strings.ContainsRune(t.Text, '\'') ||
			strings.Contains(t.Text, "'s") || strings.Contains(t.Text, "'S")
		return &Number{Text: t.Text, Value: v, Signed: signed, Pos: t.Pos}
	case t.Kind == TokString:
		p.Advance()
		return &StringLit{Value: t.Text, Pos: t.Pos}
	case t.Kind == lex.Ident:
		p.Advance()
		return &Ident{Name: t.Text, Pos: t.Pos}
	case t.Kind == TokSysName:
		p.Advance()
		call := &SysFuncCall{Name: t.Text, Pos: t.Pos}
		if p.Accept(TokOp, "(") {
			for !p.Is(TokOp, ")") && !p.At(lex.EOF) {
				call.Args = append(call.Args, p.parseExpr())
				if !p.Accept(TokOp, ",") {
					break
				}
			}
			p.Expect(TokOp, ")")
		}
		return call
	case p.Is(TokOp, "("):
		p.Advance()
		e := p.parseExpr()
		p.Expect(TokOp, ")")
		return e
	case p.Is(TokOp, "{"):
		pos := p.Advance().Pos
		first := p.parseExpr()
		if p.Is(TokOp, "{") { // replication {n{v}}
			p.Advance()
			val := p.parseExpr()
			p.Expect(TokOp, "}")
			p.Expect(TokOp, "}")
			return &ReplicateExpr{Count: first, Value: val, Pos: pos}
		}
		cat := &ConcatExpr{Parts: []Expr{first}, Pos: pos}
		for p.Accept(TokOp, ",") {
			cat.Parts = append(cat.Parts, p.parseExpr())
		}
		p.Expect(TokOp, "}")
		return cat
	default:
		p.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting an expression", t.Text)
		p.Advance()
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
