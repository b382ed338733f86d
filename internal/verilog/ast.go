package verilog

import (
	"repro/internal/hdl"
	"repro/internal/lex"
)

// SourceFile is the root of a parsed compilation unit.
type SourceFile struct {
	Modules []*Module
}

// Module is a Verilog module definition.
type Module struct {
	Name  string
	Ports []*Port
	Items []Item
	Pos   lex.Pos
}

// PortDir is a port direction.
type PortDir int

// Port directions.
const (
	DirInput PortDir = iota
	DirOutput
	DirInout
)

func (d PortDir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	default:
		return "inout"
	}
}

// Port is one module port.
type Port struct {
	Name   string
	Dir    PortDir
	IsReg  bool
	Signed bool
	Range  *Range // nil for scalar
	Pos    lex.Pos
}

// Range is a [msb:lsb] vector range with constant expressions.
type Range struct {
	MSB Expr
	LSB Expr
}

// Item is a module-level item.
type Item interface{ itemNode() }

// NetKind distinguishes wire/reg/integer declarations.
type NetKind int

// Net kinds.
const (
	KindWire NetKind = iota
	KindReg
	KindInteger
)

func (k NetKind) String() string {
	switch k {
	case KindWire:
		return "wire"
	case KindReg:
		return "reg"
	default:
		return "integer"
	}
}

// DeclName is one declarator within a net declaration.
type DeclName struct {
	Name  string
	Array *Range // non-nil for memories: reg [7:0] mem [0:255]
	Init  Expr   // optional initialiser (wire w = a & b)
	Pos   lex.Pos
}

// NetDecl declares wires, regs, or integers.
type NetDecl struct {
	Kind   NetKind
	Signed bool
	Range  *Range
	Names  []DeclName
	Pos    lex.Pos
}

// ParamDecl declares a parameter or localparam.
type ParamDecl struct {
	Name    string
	Value   Expr
	IsLocal bool
	Pos     lex.Pos
}

// ContAssign is a continuous assignment: assign lhs = rhs;
type ContAssign struct {
	LHS Expr
	RHS Expr
	Pos lex.Pos
}

// AlwaysBlock is an always block with optional sensitivity list.
type AlwaysBlock struct {
	Sens *SensList // nil means always without @ (unsupported; checker flags)
	Body Stmt
	Pos  lex.Pos
}

// InitialBlock is an initial block (testbench construct).
type InitialBlock struct {
	Body Stmt
	Pos  lex.Pos
}

// Instance is a module instantiation.
type Instance struct {
	ModuleName string
	InstName   string
	Params     []Connection // #(.N(8)) or ordered
	Conns      []Connection
	Pos        lex.Pos
}

// Connection is one port/parameter association. Name is empty for
// ordered connections.
type Connection struct {
	Name string
	Expr Expr // nil for explicitly unconnected .port()
	Pos  lex.Pos
}

func (*NetDecl) itemNode()      {}
func (*ParamDecl) itemNode()    {}
func (*ContAssign) itemNode()   {}
func (*AlwaysBlock) itemNode()  {}
func (*InitialBlock) itemNode() {}
func (*Instance) itemNode()     {}

// EdgeKind is a sensitivity edge specifier.
type EdgeKind int

// Edge kinds.
const (
	EdgeLevel EdgeKind = iota
	EdgePos
	EdgeNeg
)

// SensItem is one entry of a sensitivity list.
type SensItem struct {
	Edge EdgeKind
	Sig  Expr
}

// SensList is @(...) — Star means @*.
type SensList struct {
	Star  bool
	Items []SensItem
}

// Stmt is a procedural statement.
type Stmt interface{ stmtNode() }

// Block is begin ... end.
type Block struct {
	Name  string
	Stmts []Stmt
	Pos   lex.Pos
}

// If is if/else.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Pos  lex.Pos
}

// CaseKind distinguishes case/casez/casex.
type CaseKind int

// Case kinds.
const (
	CaseExact CaseKind = iota
	CaseZ
	CaseX
)

// CaseItem is one arm of a case statement. Exprs nil means default.
type CaseItem struct {
	Exprs []Expr
	Body  Stmt
	Pos   lex.Pos
}

// Case is a case statement.
type Case struct {
	Kind  CaseKind
	Expr  Expr
	Items []CaseItem
	Pos   lex.Pos
}

// For is a for loop.
type For struct {
	Init Stmt
	Cond Expr
	Step Stmt
	Body Stmt
	Pos  lex.Pos
}

// While is a while loop.
type While struct {
	Cond Expr
	Body Stmt
	Pos  lex.Pos
}

// Repeat is repeat (n) stmt.
type Repeat struct {
	Count Expr
	Body  Stmt
	Pos   lex.Pos
}

// Forever is forever stmt.
type Forever struct {
	Body Stmt
	Pos  lex.Pos
}

// Assign is a procedural assignment, blocking (=) or nonblocking (<=),
// with an optional intra-assignment delay.
type Assign struct {
	LHS      Expr
	RHS      Expr
	Blocking bool
	Pos      lex.Pos
}

// DelayStmt is #n stmt (stmt may be Null for a bare delay).
type DelayStmt struct {
	Amount Expr
	Body   Stmt
	Pos    lex.Pos
}

// EventWait is @(...) stmt.
type EventWait struct {
	Sens *SensList
	Body Stmt
	Pos  lex.Pos
}

// WaitStmt is wait (expr) stmt: suspends until the condition holds.
type WaitStmt struct {
	Cond Expr
	Body Stmt
	Pos  lex.Pos
}

// SysCall is a system task invocation statement ($display, $finish...).
type SysCall struct {
	Name string
	Args []Expr
	Pos  lex.Pos
}

// Null is a lone semicolon.
type Null struct{ Pos lex.Pos }

func (*Block) stmtNode()     {}
func (*If) stmtNode()        {}
func (*Case) stmtNode()      {}
func (*For) stmtNode()       {}
func (*While) stmtNode()     {}
func (*Repeat) stmtNode()    {}
func (*Forever) stmtNode()   {}
func (*Assign) stmtNode()    {}
func (*DelayStmt) stmtNode() {}
func (*EventWait) stmtNode() {}
func (*WaitStmt) stmtNode()  {}
func (*SysCall) stmtNode()   {}
func (*Null) stmtNode()      {}

// Expr is an expression node.
type Expr interface {
	exprNode()
	ExprPos() lex.Pos
}

// Ident is an identifier reference.
type Ident struct {
	Name string
	Pos  lex.Pos
}

// Number is a literal with its parsed value. Signed is true for plain
// decimal literals and 's'-marked based literals, which participate in
// signed comparison per IEEE 1364 expression typing.
type Number struct {
	Text   string
	Value  hdl.Vector
	Signed bool
	Pos    lex.Pos
}

// StringLit is a string literal (only valid in system task args).
type StringLit struct {
	Value string
	Pos   lex.Pos
}

// Unary is a prefix operator: ! ~ - + & | ^ ~& ~| ~^.
type Unary struct {
	Op  string
	X   Expr
	Pos lex.Pos
}

// Binary is an infix operator.
type Binary struct {
	Op   string
	L, R Expr
	Pos  lex.Pos
}

// Ternary is cond ? a : b.
type Ternary struct {
	Cond, Then, Else Expr
	Pos              lex.Pos
}

// ConcatExpr is {a, b, c}.
type ConcatExpr struct {
	Parts []Expr
	Pos   lex.Pos
}

// ReplicateExpr is {n{v}}.
type ReplicateExpr struct {
	Count Expr
	Value Expr
	Pos   lex.Pos
}

// Index is base[idx] — bit select or memory element select.
type Index struct {
	Base Expr
	Idx  Expr
	Pos  lex.Pos
}

// PartSelect is base[msb:lsb].
type PartSelect struct {
	Base     Expr
	MSB, LSB Expr
	Pos      lex.Pos
}

// SysFuncCall is a system function in expression position ($time...).
type SysFuncCall struct {
	Name string
	Args []Expr
	Pos  lex.Pos
}

func (*Ident) exprNode()         {}
func (*Number) exprNode()        {}
func (*StringLit) exprNode()     {}
func (*Unary) exprNode()         {}
func (*Binary) exprNode()        {}
func (*Ternary) exprNode()       {}
func (*ConcatExpr) exprNode()    {}
func (*ReplicateExpr) exprNode() {}
func (*Index) exprNode()         {}
func (*PartSelect) exprNode()    {}
func (*SysFuncCall) exprNode()   {}

// ExprPos implementations.
func (e *Ident) ExprPos() lex.Pos         { return e.Pos }
func (e *Number) ExprPos() lex.Pos        { return e.Pos }
func (e *StringLit) ExprPos() lex.Pos     { return e.Pos }
func (e *Unary) ExprPos() lex.Pos         { return e.Pos }
func (e *Binary) ExprPos() lex.Pos        { return e.Pos }
func (e *Ternary) ExprPos() lex.Pos       { return e.Pos }
func (e *ConcatExpr) ExprPos() lex.Pos    { return e.Pos }
func (e *ReplicateExpr) ExprPos() lex.Pos { return e.Pos }
func (e *Index) ExprPos() lex.Pos         { return e.Pos }
func (e *PartSelect) ExprPos() lex.Pos    { return e.Pos }
func (e *SysFuncCall) ExprPos() lex.Pos   { return e.Pos }
