package bench

import "fmt"

// in, out, clkPort and rstPort are shorthand for the ports of a
// problem's interface: an input, an output, the clock and the
// synchronous reset.
func in(name string, w int) Port  { return Port{Name: name, Width: w, In: true} }
func out(name string, w int) Port { return Port{Name: name, Width: w} }
func clkPort() Port               { return Port{Name: "clk", Width: 1, In: true, Clk: true} }
func rstPort() Port               { return Port{Name: "reset", Width: 1, In: true, Rst: true} }

// vhdlPortList renders the entity port list for the given ports.
func vhdlPortList(ports []Port) string {
	s := ""
	for i, pt := range ports {
		dir := "out"
		if pt.In {
			dir = "in "
		}
		ty := "std_logic"
		if pt.Width > 1 {
			ty = fmt.Sprintf("std_logic_vector(%d downto 0)", pt.Width-1)
		}
		sep := ";"
		if i == len(ports)-1 {
			sep = ""
		}
		s += fmt.Sprintf("    %s : %s %s%s\n", pt.Name, dir, ty, sep)
	}
	return s
}

// verilogPortList renders the module header port list.
func verilogPortList(ports []Port) string {
	s := ""
	for i, pt := range ports {
		dir := "output"
		if pt.In {
			dir = "input"
		}
		rng := ""
		if pt.Width > 1 {
			rng = fmt.Sprintf(" [%d:0]", pt.Width-1)
		}
		comma := ","
		if i == len(ports)-1 {
			comma = ""
		}
		s += fmt.Sprintf("    %s%s %s%s\n", dir, rng, pt.Name, comma)
	}
	return s
}

// verilogModule wraps a body in the standard module shell.
func verilogModule(ports []Port, body string) string {
	return "module " + TopName + "(\n" + verilogPortList(ports) + ");\n" + body + "endmodule\n"
}

// vhdlModule wraps concurrent statements (and optional declarations) in
// the standard entity/architecture shell.
func vhdlModule(ports []Port, decls, body string) string {
	s := "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n"
	s += "entity " + TopName + " is\n  port (\n" + vhdlPortList(ports) + "  );\nend entity;\n\n"
	s += "architecture rtl of " + TopName + " is\n" + decls + "begin\n" + body + "end architecture;\n"
	return s
}

// combProblems returns the combinational logic problems.
func combProblems() []*Problem {
	var ps []*Problem

	// ---- two-input scalar gates ----------------------------------------
	gates := []struct {
		id, vOp, hOp, name string
		f                  func(a, b uint64) uint64
	}{
		{"gate_and", "a & b", "a and b", "AND", func(a, b uint64) uint64 { return a & b }},
		{"gate_or", "a | b", "a or b", "OR", func(a, b uint64) uint64 { return a | b }},
		{"gate_xor", "a ^ b", "a xor b", "XOR", func(a, b uint64) uint64 { return a ^ b }},
		{"gate_nand", "~(a & b)", "a nand b", "NAND", func(a, b uint64) uint64 { return ^(a & b) & 1 }},
		{"gate_nor", "~(a | b)", "a nor b", "NOR", func(a, b uint64) uint64 { return ^(a | b) & 1 }},
		{"gate_xnor", "~(a ^ b)", "a xnor b", "XNOR", func(a, b uint64) uint64 { return ^(a ^ b) & 1 }},
	}
	for _, g := range gates {
		g := g
		ports := []Port{in("a", 1), in("b", 1), out("y", 1)}
		ps = append(ps, &Problem{
			ID: g.id, Category: "gates", Hardness: 0.05,
			Spec:  fmt.Sprintf("Implement a 2-input %s gate: output y is the %s of inputs a and b.", g.name, g.name),
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				return map[string]uint64{"y": g.f(i["a"], i["b"]) & 1}
			},
			GoldenVerilog: verilogModule(ports, fmt.Sprintf("    assign y = %s;\n", g.vOp)),
			GoldenVHDL:    vhdlModule(ports, "", fmt.Sprintf("  y <= %s;\n", g.hOp)),
		})
	}

	// NOT and BUF.
	{
		ports := []Port{in("a", 1), out("y", 1)}
		ps = append(ps, &Problem{
			ID: "gate_not", Category: "gates", Hardness: 0.03,
			Spec:  "Implement an inverter: output y is the logical NOT of input a.",
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				return map[string]uint64{"y": ^i["a"] & 1}
			},
			GoldenVerilog: verilogModule(ports, "    assign y = ~a;\n"),
			GoldenVHDL:    vhdlModule(ports, "", "  y <= not a;\n"),
		})
		ps = append(ps, &Problem{
			ID: "gate_buf", Category: "gates", Hardness: 0.02,
			Spec:  "Implement a buffer: output y simply follows input a.",
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				return map[string]uint64{"y": i["a"] & 1}
			},
			GoldenVerilog: verilogModule(ports, "    assign y = a;\n"),
			GoldenVHDL:    vhdlModule(ports, "", "  y <= a;\n"),
		})
	}

	// ---- vector bitwise ops ---------------------------------------------
	for _, w := range []int{8, 16} {
		w := w
		for _, g := range []struct {
			id, vOp, hOp string
			f            func(a, b uint64) uint64
		}{
			{"vec_and", "a & b", "a and b", func(a, b uint64) uint64 { return a & b }},
			{"vec_or", "a | b", "a or b", func(a, b uint64) uint64 { return a | b }},
			{"vec_xor", "a ^ b", "a xor b", func(a, b uint64) uint64 { return a ^ b }},
		} {
			g := g
			ports := []Port{in("a", w), in("b", w), out("y", w)}
			ps = append(ps, &Problem{
				ID: fmt.Sprintf("%s_w%d", g.id, w), Category: "gates", Hardness: 0.06,
				Spec:  fmt.Sprintf("Implement the bitwise operation y = %s for %d-bit vectors a and b.", g.vOp, w),
				Ports: ports,
				Comb: func(i map[string]uint64) map[string]uint64 {
					return map[string]uint64{"y": mask(g.f(i["a"], i["b"]), w)}
				},
				GoldenVerilog: verilogModule(ports, fmt.Sprintf("    assign y = %s;\n", g.vOp)),
				GoldenVHDL:    vhdlModule(ports, "", fmt.Sprintf("  y <= %s;\n", g.hOp)),
			})
		}
	}
	for _, w := range []int{8, 16} {
		w := w
		ports := []Port{in("a", w), out("y", w)}
		ps = append(ps, &Problem{
			ID: fmt.Sprintf("vec_not_w%d", w), Category: "gates", Hardness: 0.04,
			Spec:  fmt.Sprintf("Implement the bitwise complement y = ~a for a %d-bit vector a.", w),
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				return map[string]uint64{"y": mask(^i["a"], w)}
			},
			GoldenVerilog: verilogModule(ports, "    assign y = ~a;\n"),
			GoldenVHDL:    vhdlModule(ports, "", "  y <= not a;\n"),
		})
	}

	// ---- multiplexers ---------------------------------------------------
	for _, w := range []int{1, 4, 8, 16} {
		w := w
		ports := []Port{in("a", w), in("b", w), in("sel", 1), out("y", w)}
		vBody := "    assign y = sel ? b : a;\n"
		hBody := "  y <= a when sel = '0' else b;\n"
		ps = append(ps, &Problem{
			ID: fmt.Sprintf("mux2_w%d", w), Category: "mux", Hardness: 0.08,
			Spec:  fmt.Sprintf("Implement a 2-to-1 multiplexer for %d-bit data: y = a when sel is 0, y = b when sel is 1.", w),
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				if i["sel"]&1 == 1 {
					return map[string]uint64{"y": i["b"]}
				}
				return map[string]uint64{"y": i["a"]}
			},
			GoldenVerilog: verilogModule(ports, vBody),
			GoldenVHDL:    vhdlModule(ports, "", hBody),
		})
	}
	for _, w := range []int{2, 4, 8} {
		w := w
		ports := []Port{in("a", w), in("b", w), in("c", w), in("d", w), in("sel", 2), out("y", w)}
		vBody := `    assign y = (sel == 2'b00) ? a :
               (sel == 2'b01) ? b :
               (sel == 2'b10) ? c : d;
`
		hBody := `  process(a, b, c, d, sel)
  begin
    case sel is
      when "00" => y <= a;
      when "01" => y <= b;
      when "10" => y <= c;
      when others => y <= d;
    end case;
  end process;
`
		ps = append(ps, &Problem{
			ID: fmt.Sprintf("mux4_w%d", w), Category: "mux", Hardness: 0.12,
			Spec:  fmt.Sprintf("Implement a 4-to-1 multiplexer for %d-bit data selecting among a, b, c, d with the 2-bit input sel (00 selects a, 01 b, 10 c, 11 d).", w),
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				var y uint64
				switch i["sel"] & 3 {
				case 0:
					y = i["a"]
				case 1:
					y = i["b"]
				case 2:
					y = i["c"]
				default:
					y = i["d"]
				}
				return map[string]uint64{"y": y}
			},
			GoldenVerilog: verilogModule(ports, vBody),
			GoldenVHDL:    vhdlModule(ports, "", hBody),
		})
	}

	// ---- decoders ---------------------------------------------------------
	for _, cfg := range []struct{ n, m int }{{2, 4}, {3, 8}} {
		cfg := cfg
		ports := []Port{in("a", cfg.n), out("y", cfg.m)}
		vBody := fmt.Sprintf("    assign y = %d'd1 << a;\n", cfg.m)
		hDecls := fmt.Sprintf("  signal idx : integer;\n")
		hBody := fmt.Sprintf(`  idx <= to_integer(unsigned(a));
  process(idx)
  begin
    y <= (others => '0');
    y(idx) <= '1';
  end process;
`)
		ps = append(ps, &Problem{
			ID: fmt.Sprintf("decoder_%dto%d", cfg.n, cfg.m), Category: "decoder", Hardness: 0.15,
			Spec:  fmt.Sprintf("Implement a %d-to-%d one-hot decoder: output bit y[i] is 1 exactly when the binary input a equals i.", cfg.n, cfg.m),
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				return map[string]uint64{"y": mask(1<<i["a"], cfg.m)}
			},
			GoldenVerilog: verilogModule(ports, vBody),
			GoldenVHDL:    vhdlModule(ports, hDecls, hBody),
		})
		// Enable variants.
		portsEn := []Port{in("a", cfg.n), in("en", 1), out("y", cfg.m)}
		vBodyEn := fmt.Sprintf("    assign y = en ? (%d'd1 << a) : %d'd0;\n", cfg.m, cfg.m)
		hBodyEn := fmt.Sprintf(`  process(a, en)
  begin
    y <= (others => '0');
    if en = '1' then
      y(to_integer(unsigned(a))) <= '1';
    end if;
  end process;
`)
		ps = append(ps, &Problem{
			ID: fmt.Sprintf("decoder_%dto%d_en", cfg.n, cfg.m), Category: "decoder", Hardness: 0.18,
			Spec:  fmt.Sprintf("Implement a %d-to-%d decoder with enable: y is one-hot for input a when en is 1, and all zeros when en is 0.", cfg.n, cfg.m),
			Ports: portsEn,
			Comb: func(i map[string]uint64) map[string]uint64 {
				if i["en"]&1 == 0 {
					return map[string]uint64{"y": 0}
				}
				return map[string]uint64{"y": mask(1<<i["a"], cfg.m)}
			},
			GoldenVerilog: verilogModule(portsEn, vBodyEn),
			GoldenVHDL:    vhdlModule(portsEn, "", hBodyEn),
		})
	}

	// ---- encoders -------------------------------------------------------
	ps = append(ps, encoderProblems()...)

	// ---- comparators ------------------------------------------------------
	for _, w := range []int{4, 8, 16} {
		w := w
		ports := []Port{in("a", w), in("b", w), out("eq", 1)}
		ps = append(ps, &Problem{
			ID: fmt.Sprintf("cmp_eq_w%d", w), Category: "comparator", Hardness: 0.08,
			Spec:  fmt.Sprintf("Implement a %d-bit equality comparator: eq is 1 when a equals b.", w),
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				return map[string]uint64{"eq": b2u(i["a"] == i["b"])}
			},
			GoldenVerilog: verilogModule(ports, "    assign eq = (a == b);\n"),
			GoldenVHDL:    vhdlModule(ports, "", "  eq <= '1' when a = b else '0';\n"),
		})
	}
	{
		w := 8
		ports := []Port{in("a", w), in("b", w), out("lt", 1), out("eq", 1), out("gt", 1)}
		ps = append(ps, &Problem{
			ID: "cmp_mag_w8", Category: "comparator", Hardness: 0.18,
			Spec:  "Implement an 8-bit unsigned magnitude comparator producing three outputs: lt (a<b), eq (a=b), gt (a>b).",
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				return map[string]uint64{
					"lt": b2u(i["a"] < i["b"]),
					"eq": b2u(i["a"] == i["b"]),
					"gt": b2u(i["a"] > i["b"]),
				}
			},
			GoldenVerilog: verilogModule(ports, "    assign lt = (a < b);\n    assign eq = (a == b);\n    assign gt = (a > b);\n"),
			GoldenVHDL: vhdlModule(ports, "", `  lt <= '1' when unsigned(a) < unsigned(b) else '0';
  eq <= '1' when a = b else '0';
  gt <= '1' when unsigned(a) > unsigned(b) else '0';
`),
		})
	}
	for _, cfg := range []struct {
		id, spec, vOp string
		f             func(a, b uint64) uint64
	}{
		{"cmp_lt_w4", "lt is 1 when unsigned a is strictly less than unsigned b", "<", func(a, b uint64) uint64 { return b2u(a < b) }},
		{"cmp_ge_w4", "lt is 1 when unsigned a is greater than or equal to unsigned b", ">=", func(a, b uint64) uint64 { return b2u(a >= b) }},
	} {
		cfg := cfg
		ports := []Port{in("a", 4), in("b", 4), out("lt", 1)}
		hOp := map[string]string{"<": "<", ">=": ">="}[cfg.vOp]
		ps = append(ps, &Problem{
			ID: cfg.id, Category: "comparator", Hardness: 0.1,
			Spec:  fmt.Sprintf("Implement a 4-bit unsigned comparator: %s.", cfg.spec),
			Ports: ports,
			Comb: func(i map[string]uint64) map[string]uint64 {
				return map[string]uint64{"lt": cfg.f(i["a"], i["b"])}
			},
			GoldenVerilog: verilogModule(ports, fmt.Sprintf("    assign lt = (a %s b);\n", cfg.vOp)),
			GoldenVHDL:    vhdlModule(ports, "", fmt.Sprintf("  lt <= '1' when unsigned(a) %s unsigned(b) else '0';\n", hOp)),
		})
	}

	ps = append(ps, bitopsProblems()...)
	return ps
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// encoderProblems covers binary and priority encoders.
func encoderProblems() []*Problem {
	var ps []*Problem
	for _, cfg := range []struct{ m, n int }{{4, 2}, {8, 3}} {
		cfg := cfg
		// Plain binary encoder (input assumed one-hot; for non-one-hot
		// inputs the highest set bit wins, so it equals the priority
		// encoder — keep the spec honest about it).
		ports := []Port{in("a", cfg.m), out("y", cfg.n), out("valid", 1)}
		vBody := "    integer i;\n    always @(*) begin\n        y = 0; valid = 0;\n"
		vBody += fmt.Sprintf("        for (i = 0; i < %d; i = i + 1)\n", cfg.m)
		vBody += "            if (a[i]) begin y = i; valid = 1; end\n    end\n"
		hBody := fmt.Sprintf(`  process(a)
    variable idx : integer := 0;
    variable found : std_logic := '0';
  begin
    idx := 0;
    found := '0';
    for i in 0 to %d loop
      if a(i) = '1' then
        idx := i;
        found := '1';
      end if;
    end loop;
    y <= std_logic_vector(to_unsigned(idx, %d));
    valid <= found;
  end process;
`, cfg.m-1, cfg.n)
		ports2 := make([]Port, len(ports))
		copy(ports2, ports)
		// The output ports must be regs in the Verilog golden.
		golden := "module " + TopName + "(\n"
		for i, pt := range ports {
			dir := "output reg"
			if pt.In {
				dir = "input"
			}
			rng := ""
			if pt.Width > 1 {
				rng = fmt.Sprintf(" [%d:0]", pt.Width-1)
			}
			comma := ","
			if i == len(ports)-1 {
				comma = ""
			}
			golden += fmt.Sprintf("    %s%s %s%s\n", dir, rng, pt.Name, comma)
		}
		golden += ");\n" + vBody + "endmodule\n"
		ps = append(ps, &Problem{
			ID: fmt.Sprintf("prienc_%dto%d", cfg.m, cfg.n), Category: "encoder", Hardness: 0.3,
			Spec: fmt.Sprintf("Implement a %d-to-%d priority encoder: y is the index of the highest set bit of a, and valid is 1 when any bit of a is set (y is 0 when a is all zeros).",
				cfg.m, cfg.n),
			Ports: ports2,
			Comb: func(i map[string]uint64) map[string]uint64 {
				a := i["a"]
				var y uint64
				var valid uint64
				for b := 0; b < cfg.m; b++ {
					if a&(1<<uint(b)) != 0 {
						y = uint64(b)
						valid = 1
					}
				}
				return map[string]uint64{"y": y, "valid": valid}
			},
			GoldenVerilog: golden,
			GoldenVHDL:    vhdlModule(ports, "", hBody),
		})
	}
	return ps
}
