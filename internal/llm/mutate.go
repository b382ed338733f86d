package llm

import (
	"math/rand"
	"strings"
)

// MutKind distinguishes syntax-breaking from behaviour-changing defects.
type MutKind int

// Mutation kinds.
const (
	MutSyntax MutKind = iota
	MutFunctional
)

// Mutation is one concrete defect injected into generated code: a
// textual Edit of the source it was sampled from. Marker is a substring
// of the resulting broken region used to decide whether agent feedback
// localises the defect. A Mutation is a plain value, so a session
// snapshot stores it as it is.
type Mutation struct {
	Kind   MutKind `json:"kind"`
	Desc   string  `json:"desc"`
	Marker string  `json:"marker"`
	Edit   `json:"edit"`
}

// Edit replaces occurrence N (0-based) of From with To. A Semi edit
// instead drops the first ";" after that occurrence, VHDL's
// missing-semicolon defect. An edit whose occurrence or semicolon is
// missing leaves the source as it is.
type Edit struct {
	From string `json:"from"`
	To   string `json:"to,omitempty"`
	N    int    `json:"n,omitempty"`
	Semi bool   `json:"semi,omitempty"`
}

// Apply returns src with the edit made.
func (e Edit) Apply(src string) string {
	idx := 0
	for i := 0; ; i++ {
		j := strings.Index(src[idx:], e.From)
		if j < 0 {
			return src
		}
		idx += j
		if i == e.N {
			break
		}
		idx += len(e.From)
	}
	if !e.Semi {
		return src[:idx] + e.To + src[idx+len(e.From):]
	}
	idx += len(e.From)
	semi := strings.IndexByte(src[idx:], ';')
	if semi < 0 {
		return src
	}
	return src[:idx+semi] + src[idx+semi+1:]
}

// site is one row of the defect table: a defect the model makes at up
// to max occurrences of from. marker defaults to to, trimmed. weight
// biases sampling (0 reads as 1): subtle boundary defects carry more
// weight than loud structural ones, matching the empirical skew of LLM
// functional bugs toward corner cases.
type site struct {
	from, to, desc string
	max            int
	marker         string
	weight         int
	semi           bool
}

// defects is the defect table, indexed by HDL (verilogRows, vhdlRows)
// and kind. Sampling draws from the enumeration by position, so the
// row order is part of every sampled defect.
var defects = [2][2][]site{
	verilogRows: {
		MutSyntax: {
			{";\n", "\n", "missing semicolon", 4, "", 0, false},
			{"endmodule", "endmodul", "misspelled endmodule", 1, "", 0, false},
			{"begin", "begn", "misspelled 'begin'", 2, "", 0, false},
			{");\n", ";\n", "missing closing parenthesis", 3, "", 0, false},
			// reg dropped from an output that is written procedurally.
			{"output reg", "output", "output missing 'reg' despite procedural assignment", 1, "non-register", 0, false},
			{"(reset)", "(reset_sig)", "reference to undeclared identifier", 1, "reset_sig", 0, false},
			{"(count)", "(count_sig)", "reference to undeclared identifier", 1, "count_sig", 0, false},
			{"(state)", "(state_sig)", "reference to undeclared identifier", 1, "state_sig", 0, false},
			{"(din)", "(din_sig)", "reference to undeclared identifier", 1, "din_sig", 0, false},
			{"(sel)", "(sel_sig)", "reference to undeclared identifier", 1, "sel_sig", 0, false},
			{"(cin)", "(cin_sig)", "reference to undeclared identifier", 1, "cin_sig", 0, false},
			{"endcase", "", "missing endcase", 1, "", 0, false},
		},
		MutFunctional: {
			{" + 1", " + 2", "off-by-one increment", 3, "", 1, false},
			{" - 1", " - 2", "off-by-one decrement", 3, "", 1, false},
			{" & ", " | ", "AND swapped with OR", 3, "", 1, false},
			{" | ", " & ", "OR swapped with AND", 3, "", 1, false},
			{" ^ ", " & ", "XOR swapped with AND", 3, "", 1, false},
			{" == ", " != ", "equality inverted", 3, "", 1, false},
			{" < ", " >= ", "comparison inverted", 3, "", 1, false},
			{" > ", " <= ", "comparison inverted", 3, "", 1, false},
			{"posedge", "negedge", "wrong clock edge", 3, "", 1, false},
			{"? a : b", "? b : a", "mux arms swapped", 3, "", 1, false},
			{"? b : a", "? a : b", "mux arms swapped", 3, "", 1, false},
			{"if (reset)", "if (!reset)", "reset polarity inverted", 3, "", 1, false},
			{"<= 1'b1", "<= 1'b0", "constant flipped", 3, "", 1, false},
			{"<= 0;\n", "<= 1;\n", "reset value wrong", 3, "", 1, false},
			{" >> ", " << ", "shift direction reversed", 3, "", 1, false},
			{" << ", " >> ", "shift direction reversed", 3, "", 1, false},
			{"~", "", "inversion dropped", 3, "", 1, false},
			// Subtle boundary defects: off-by-one thresholds and wrong
			// case constants. These are the defects most likely to slip
			// past a low-coverage self-generated testbench while still
			// failing the exhaustive reference bench — the gap that
			// keeps AIVRIL 2 below 100% functional in the paper.
			{">= 4'd9", ">= 4'd10", "wrap threshold off by one", 3, "", 6, false},
			{"== 2'b11", "== 2'b10", "terminal count off by one", 3, "", 6, false},
			{"!= 4'd15", "!= 4'd14", "saturation limit off by one", 3, "", 6, false},
			{">= 3'd5", ">= 3'd6", "threshold off by one", 3, "", 6, false},
			{"== 2'd3", "== 2'd2", "count limit off by one", 3, "", 6, false},
			{"cnt <= 2'd3", "cnt <= 2'd2", "stretch length off by one", 3, "", 6, false},
			{"q <= 4'b0001", "q <= 4'b0010", "initial pattern wrong", 3, "", 6, false},
			{"state <= 4'd1", "state <= 4'd0", "FSM transition dropped", 3, "", 6, false},
			{"4'd0: state <= din ? 4'd1 : 4'd0", "4'd0: state <= 4'd0", "FSM arc stuck", 3, "", 6, false},
			{"4'd4", "4'd3", "state constant off by one", 3, "", 6, false},
			{"8'hFF", "8'hFE", "saturation constant off by one", 3, "", 6, false},
		},
	},
	vhdlRows: {
		MutSyntax: {
			// The semicolon of an assignment statement (library and use
			// clauses are too forgiving to bother mutating).
			{"<= ", "", "missing semicolon", 3, ";", 0, true},
			{":= ", "", "missing semicolon", 3, ";", 0, true},
			{"end if;", "", "missing 'end if'", 2, "", 0, false},
			{"end entity;", "end entty;", "misspelled 'entity'", 1, "entty", 0, false},
			{"  q <= ", "  q := ", "signal assigned with ':='", 1, "", 0, false},
			{"end process;", "", "missing 'end process'", 1, "", 0, false},
			{"architecture rtl", "architcture rtl", "misspelled 'architecture'", 1, "architcture", 0, false},
			{"reset = '1'", "reset_sig = '1'", "reference to undeclared identifier", 1, "reset_sig", 0, false},
			{"cnt = '1'", "cnt_sig = '1'", "reference to undeclared identifier", 1, "cnt_sig", 0, false},
			{"state = '1'", "state_sig = '1'", "reference to undeclared identifier", 1, "state_sig", 0, false},
			{"din = '1'", "din_sig = '1'", "reference to undeclared identifier", 1, "din_sig", 0, false},
			{"sel = '1'", "sel_sig = '1'", "reference to undeclared identifier", 1, "sel_sig", 0, false},
			{"r = '1'", "r_sig = '1'", "reference to undeclared identifier", 1, "r_sig", 0, false},
		},
		MutFunctional: {
			{" + 1", " + 2", "off-by-one increment", 3, "", 1, false},
			{" - 1", " - 2", "off-by-one decrement", 3, "", 1, false},
			{" and ", " or ", "AND swapped with OR", 3, "", 1, false},
			{" or ", " and ", "OR swapped with AND", 3, "", 1, false},
			{" xor ", " and ", "XOR swapped with AND", 3, "", 1, false},
			{"rising_edge", "falling_edge", "wrong clock edge", 3, "", 1, false},
			{"reset = '1'", "reset = '0'", "reset polarity inverted", 3, "", 1, false},
			{"<= '1'", "<= '0'", "constant flipped", 3, "", 1, false},
			{"(others => '0')", "(others => '1')", "reset value wrong", 3, "", 1, false},
			{"shift_right", "shift_left", "shift direction reversed", 3, "", 1, false},
			{"shift_left", "shift_right", "shift direction reversed", 3, "", 1, false},
			{"not ", "", "inversion dropped", 3, "", 1, false},
			{" /= ", " = ", "inequality inverted", 3, "", 1, false},
			// Subtle boundary defects, as for Verilog.
			{">= 9", ">= 10", "wrap threshold off by one", 3, "", 6, false},
			{"= \"11\"", "= \"10\"", "terminal count off by one", 3, "", 6, false},
			{"/= 15", "/= 14", "saturation limit off by one", 3, "", 6, false},
			{">= 5", ">= 6", "threshold off by one", 3, "", 6, false},
			{"r <= \"0001\"", "r <= \"0010\"", "initial pattern wrong", 3, "", 6, false},
			{"state <= 1; else state <= 0", "state <= 0; else state <= 0", "FSM arc stuck", 3, "", 6, false},
			{"cnt <= \"11\"", "cnt <= \"10\"", "stretch length off by one", 3, "", 6, false},
			{"when 4 =>", "when 3 =>", "state constant off by one", 3, "", 6, false},
			{"\"11111111\"", "\"11111110\"", "saturation constant off by one", 3, "", 6, false},
		},
	},
}

// The HDL index of the defect table.
const (
	verilogRows = 0
	vhdlRows    = 1
)

// candidate is one enumerated defect: occurrence n of a row's from,
// with the row's sampling weight.
type candidate struct {
	row    *site
	n      int
	weight int
}

// candidates enumerates the defects of one kind that src admits: for
// each table row in order, its first max occurrences of from. It is a
// pure function of (src, HDL, kind).
func candidates(src string, verilog bool, kind MutKind) []candidate {
	rows := defects[vhdlRows][kind]
	if verilog {
		rows = defects[verilogRows][kind]
	}
	var out []candidate
	for i := range rows {
		r := &rows[i]
		for n, idx := 0, 0; n < r.max; n++ {
			j := strings.Index(src[idx:], r.from)
			if j < 0 {
				break
			}
			idx += j + len(r.from)
			out = append(out, candidate{row: r, n: n, weight: max(r.weight, 1)})
		}
	}
	return out
}

// mutation is the candidate as a defect of the given kind.
func (c candidate) mutation(kind MutKind) Mutation {
	r := c.row
	marker := r.marker
	if marker == "" {
		marker = strings.TrimSpace(r.to)
	}
	return Mutation{Kind: kind, Desc: r.desc, Marker: marker, Edit: Edit{From: r.from, To: r.to, N: c.n, Semi: r.semi}}
}

// sampleMutations picks up to n distinct mutation sites of the given kind.
func sampleMutations(rng *rand.Rand, src string, verilog bool, kind MutKind, n int) []Mutation {
	sites := candidates(src, verilog, kind)
	if len(sites) == 0 || n <= 0 {
		return nil
	}
	// Weighted sampling without replacement.
	total := 0
	for _, s := range sites {
		total += s.weight
	}
	var out []Mutation
	for len(out) < n && total > 0 {
		pick := rng.Intn(total)
		for i := range sites {
			w := sites[i].weight
			if w == 0 {
				continue
			}
			if pick < w {
				out = append(out, sites[i].mutation(kind))
				total -= w
				sites[i].weight = 0
				break
			}
			pick -= w
		}
	}
	return out
}

// render applies the active mutations to the golden source in order.
func render(golden string, muts []Mutation) string {
	src := golden
	for _, m := range muts {
		src = m.Apply(src)
	}
	return src
}
