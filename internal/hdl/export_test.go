package hdl

// The general literal decoders, exported to the external fuzz tests as
// the oracle for the allocation-free fast paths.
var (
	ParseVerilogLiteralGeneral = parseVerilogLiteral
	ParseVHDLBitStringGeneral  = parseVHDLBitString
)
