package vhdl

import (
	"repro/internal/hdl"
	"repro/internal/lex"
)

// DesignFile is a parsed VHDL compilation unit.
type DesignFile struct {
	Entities []*Entity
	Archs    []*Architecture
}

// PortDir is a port mode.
type PortDir int

// Port modes.
const (
	DirIn PortDir = iota
	DirOut
	DirInout
)

func (d PortDir) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	default:
		return "inout"
	}
}

// TypeRef names one of the supported types with an optional range.
type TypeRef struct {
	Name       string // std_logic, std_logic_vector, unsigned, signed, integer, boolean, time
	HasRange   bool
	Left       Expr
	Right      Expr
	Descending bool // downto
	Pos        lex.Pos
}

// GenericDecl is one generic of an entity.
type GenericDecl struct {
	Name    string
	Type    TypeRef
	Default Expr
	Pos     lex.Pos
}

// PortDecl is one port of an entity.
type PortDecl struct {
	Name string
	Dir  PortDir
	Type TypeRef
	Pos  lex.Pos
}

// Entity is an entity declaration.
type Entity struct {
	Name     string
	Generics []*GenericDecl
	Ports    []*PortDecl
	Pos      lex.Pos
}

// Architecture is an architecture body.
type Architecture struct {
	Name       string
	EntityName string
	Decls      []Decl
	Stmts      []ConcStmt
	Pos        lex.Pos
}

// Decl is a declarative-region item.
type Decl interface{ declNode() }

// SignalDecl declares architecture signals.
type SignalDecl struct {
	Names []string
	Type  TypeRef
	Init  Expr
	Pos   lex.Pos
}

// VarDecl declares process variables.
type VarDecl struct {
	Names []string
	Type  TypeRef
	Init  Expr
	Pos   lex.Pos
}

// ConstDecl declares a constant.
type ConstDecl struct {
	Name  string
	Type  TypeRef
	Value Expr
	Pos   lex.Pos
}

func (*SignalDecl) declNode() {}
func (*VarDecl) declNode()    {}
func (*ConstDecl) declNode()  {}

// ConcStmt is a concurrent statement.
type ConcStmt interface{ concNode() }

// CondWave is one arm of a (possibly conditional) concurrent assignment.
type CondWave struct {
	Value   Expr
	AfterNs Expr // nil: no delay
	Cond    Expr // nil: unconditional / final else
}

// ConcAssign is target <= [w1 when c1 else] w2 ... ;
type ConcAssign struct {
	Label  string
	Target Expr
	Waves  []CondWave
	Pos    lex.Pos
}

// ProcessStmt is a process with either a sensitivity list or wait
// statements in the body.
type ProcessStmt struct {
	Label string
	Sens  []Expr // sensitivity names; empty when the body uses wait
	Decls []Decl
	Body  []Stmt
	Pos   lex.Pos
}

// Assoc is one element of a port/generic map.
type Assoc struct {
	Formal string // empty for positional
	Actual Expr   // nil for open
	Pos    lex.Pos
}

// InstanceStmt is `label: entity work.name [generic map (...)] port map (...);`
// or component-style `label: name port map (...);`.
type InstanceStmt struct {
	Label      string
	EntityName string
	Generics   []Assoc
	Ports      []Assoc
	Pos        lex.Pos
}

func (*ConcAssign) concNode()   {}
func (*ProcessStmt) concNode()  {}
func (*InstanceStmt) concNode() {}

// Stmt is a sequential statement.
type Stmt interface{ vstmtNode() }

// SigAssign is a sequential signal assignment.
type SigAssign struct {
	Target  Expr
	Value   Expr
	AfterNs Expr
	Pos     lex.Pos
}

// VarAssign is variable := expr.
type VarAssign struct {
	Target Expr
	Value  Expr
	Pos    lex.Pos
}

// IfBranch is one condition/body pair of an if statement.
type IfBranch struct {
	Cond Expr
	Body []Stmt
}

// IfStmt is if/elsif/else.
type IfStmt struct {
	Branches []IfBranch
	Else     []Stmt
	Pos      lex.Pos
}

// CaseArm is one `when choices =>` arm; nil Choices means others.
type CaseArm struct {
	Choices []Expr
	Body    []Stmt
	Pos     lex.Pos
}

// CaseStmt is a case statement.
type CaseStmt struct {
	Expr Expr
	Arms []CaseArm
	Pos  lex.Pos
}

// ForStmt is for i in a to|downto b loop.
type ForStmt struct {
	Var        string
	Left       Expr
	Right      Expr
	Descending bool
	Body       []Stmt
	Pos        lex.Pos
}

// WhileStmt is while cond loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Pos  lex.Pos
}

// WaitStmt covers wait; / wait for t; / wait until c; / wait on s;
type WaitStmt struct {
	OnSignals []Expr
	Until     Expr
	ForNs     Expr
	Forever   bool // plain `wait;`
	Pos       lex.Pos
}

// AssertStmt is assert cond [report msg] [severity level].
type AssertStmt struct {
	Cond     Expr
	Report   Expr
	Severity string // note, warning, error, failure ("" = error)
	Pos      lex.Pos
}

// ReportStmt is report msg [severity level].
type ReportStmt struct {
	Message  Expr
	Severity string
	Pos      lex.Pos
}

// NullStmt is `null;`.
type NullStmt struct{ Pos lex.Pos }

// ExitStmt is `exit [when cond];` inside loops.
type ExitStmt struct {
	When Expr
	Pos  lex.Pos
}

func (*SigAssign) vstmtNode()  {}
func (*VarAssign) vstmtNode()  {}
func (*IfStmt) vstmtNode()     {}
func (*CaseStmt) vstmtNode()   {}
func (*ForStmt) vstmtNode()    {}
func (*WhileStmt) vstmtNode()  {}
func (*WaitStmt) vstmtNode()   {}
func (*AssertStmt) vstmtNode() {}
func (*ReportStmt) vstmtNode() {}
func (*NullStmt) vstmtNode()   {}
func (*ExitStmt) vstmtNode()   {}

// Expr is an expression node.
type Expr interface {
	vexprNode()
	ExprPos() lex.Pos
}

// Name is an identifier reference.
type Name struct {
	Ident string
	Pos   lex.Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   lex.Pos
}

// CharLit is '0' / '1' / 'x' / 'z'.
type CharLit struct {
	Value hdl.Logic
	Raw   string
	Pos   lex.Pos
}

// BitStrLit is "1010" or x"AF".
type BitStrLit struct {
	Value hdl.Vector
	Raw   string
	Pos   lex.Pos
}

// StrLit is a report-style string.
type StrLit struct {
	Value string
	Pos   lex.Pos
}

// BoolLit is true/false.
type BoolLit struct {
	Value bool
	Pos   lex.Pos
}

// UnaryExpr is not/-/+/abs.
type UnaryExpr struct {
	Op  string
	X   Expr
	Pos lex.Pos
}

// BinaryExpr is an infix operation.
type BinaryExpr struct {
	Op   string
	L, R Expr
	Pos  lex.Pos
}

// CallOrIndex is name(args): function call, array index, or slice —
// resolved during elaboration.
type CallOrIndex struct {
	Name string
	Args []Expr
	// Slice form: name(l downto r) / name(l to r)
	IsSlice    bool
	Left       Expr
	Right      Expr
	Descending bool
	Pos        lex.Pos
}

// AttrExpr is base'attr (event, length, range bounds unsupported).
type AttrExpr struct {
	Base string
	Attr string
	Pos  lex.Pos
}

// AggregateExpr supports (others => v) only.
type AggregateExpr struct {
	Others Expr
	Pos    lex.Pos
}

func (*Name) vexprNode()          {}
func (*IntLit) vexprNode()        {}
func (*CharLit) vexprNode()       {}
func (*BitStrLit) vexprNode()     {}
func (*StrLit) vexprNode()        {}
func (*BoolLit) vexprNode()       {}
func (*UnaryExpr) vexprNode()     {}
func (*BinaryExpr) vexprNode()    {}
func (*CallOrIndex) vexprNode()   {}
func (*AttrExpr) vexprNode()      {}
func (*AggregateExpr) vexprNode() {}

// ExprPos implementations.
func (e *Name) ExprPos() lex.Pos          { return e.Pos }
func (e *IntLit) ExprPos() lex.Pos        { return e.Pos }
func (e *CharLit) ExprPos() lex.Pos       { return e.Pos }
func (e *BitStrLit) ExprPos() lex.Pos     { return e.Pos }
func (e *StrLit) ExprPos() lex.Pos        { return e.Pos }
func (e *BoolLit) ExprPos() lex.Pos       { return e.Pos }
func (e *UnaryExpr) ExprPos() lex.Pos     { return e.Pos }
func (e *BinaryExpr) ExprPos() lex.Pos    { return e.Pos }
func (e *CallOrIndex) ExprPos() lex.Pos   { return e.Pos }
func (e *AttrExpr) ExprPos() lex.Pos      { return e.Pos }
func (e *AggregateExpr) ExprPos() lex.Pos { return e.Pos }
