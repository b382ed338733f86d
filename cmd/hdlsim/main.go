// Command hdlsim is a standalone HDL compiler/simulator built on the
// reproduction's EDA substrate — the offline stand-in for xvlog/xvhdl +
// xsim. It compiles the given source files (DUT first, testbench last)
// and, unless -compile-only is set, elaborates and simulates `-top`.
//
//	hdlsim -top tb design.v tb.v
//	hdlsim -lang vhdl -top tb design.vhd tb.vhd
//	hdlsim -compile-only design.v
//
// The exit code is 0 when compilation (and the testbench, if run)
// succeeds, 1 otherwise, so it slots into scripts and CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/edatool"
)

func main() {
	var (
		top         = flag.String("top", "tb", "top-level module/entity to simulate")
		langName    = flag.String("lang", "", "verilog | vhdl (default: inferred from file suffix)")
		compileOnly = flag.Bool("compile-only", false, "stop after the syntax/semantic check")
		maxTime     = flag.Uint64("max-time", 1_000_000, "simulated-time limit (ns)")
		vcdPath     = flag.String("vcd", "", "write the $dumpvars waveform to this file")
	)
	flag.Parse()
	files := flag.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: hdlsim [-top tb] [-lang verilog|vhdl] file.v [more files...]")
		os.Exit(2)
	}

	lang := edatool.Verilog
	switch {
	case *langName == "vhdl":
		lang = edatool.VHDL
	case *langName == "verilog" || *langName == "":
		if *langName == "" && (strings.HasSuffix(files[0], ".vhd") || strings.HasSuffix(files[0], ".vhdl")) {
			lang = edatool.VHDL
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown language %q\n", *langName)
		os.Exit(2)
	}

	var sources []edatool.Source
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdlsim: %v\n", err)
			os.Exit(1)
		}
		sources = append(sources, edatool.Source{Name: f, Text: string(text)})
	}

	if *compileOnly {
		comp := edatool.Compile(nil, lang, sources...)
		fmt.Print(comp.Log)
		if !comp.OK {
			os.Exit(1)
		}
		return
	}

	res := edatool.Simulate(nil, lang, *top, *maxTime, sources...)
	fmt.Print(res.Log)
	if *vcdPath != "" && res.VCD != "" {
		if err := os.WriteFile(*vcdPath, []byte(res.VCD), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hdlsim: writing VCD: %v\n", err)
		}
	}
	if res.Passed {
		fmt.Println("hdlsim: PASSED")
		return
	}
	fmt.Println("hdlsim: FAILED")
	os.Exit(1)
}
