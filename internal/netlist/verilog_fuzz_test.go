package netlist_test

// External test package so the fuzz corpus can be seeded with the real
// ALU and FPU netlists (those packages import netlist, so an internal
// test would be an import cycle).

import (
	"io"
	"testing"

	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/fpu"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// FuzzVerilogRoundTrip checks the two contracts of the failing-netlist
// interchange format (§3.3.2 deliverables):
//
//  1. ParseVerilog never panics, whatever bytes it is fed — failing
//     netlists cross tool boundaries, so corrupt files must come back
//     as errors, not crashes.
//  2. Anything it accepts re-exports losslessly: the re-parsed module
//     preserves every cell (per kind), port shape, DFF init, and clock,
//     and after one normalizing round trip the Verilog text is an exact
//     fixed point of Verilog(ParseVerilog(·)).
func FuzzVerilogRoundTrip(f *testing.F) {
	for _, src := range roundTripSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) { checkRoundTrip(t, src) })
}

// roundTripSeeds are the importer's fuzz seeds. The FPU export (~460 KB)
// starves the mutation engine when used as a seed, so it is exercised by
// TestVerilogRoundTripFPU and TestParseMatchesOracle instead and only
// the ALU export seeds the fuzzers.
func roundTripSeeds() []string {
	return []string{
		alu.Build().Netlist.Verilog(),
		"module m (clk, a, o);\n" +
			"  input wire clk;\n" +
			"  input wire [1:0] a;\n" +
			"  output wire [0:0] o;\n" +
			"  wire [5:0] n;\n" +
			"  assign n[0] = clk;\n" +
			"  assign n[1] = a[0];\n" +
			"  assign n[2] = a[1];\n" +
			"  assign n[3] = n[1] ^ n[2]; // x\n" +
			"  dff #(.INIT(1'b1)) q (.clk(n[0]), .d(n[3]), .q(n[4]));\n" +
			"  assign o[0] = n[4];\n" +
			"endmodule\n",
		"module empty ();\nendmodule\n",
		"module bad (a);\n  input wire [999999999:0] a;\nendmodule\n",
		"not verilog at all",
	}
}

// spacedModule wraps one cell line in a module whose nets n[1]..n[3]
// are driven by input bits, so that any gate form it accepts builds.
func spacedModule(cellLine string) string {
	return "module s (a, o);\n  input wire [2:0] a;\n  output wire [0:0] o;\n  wire [4:0] n;\n" +
		"  assign n[1] = a[0];\n  assign n[2] = a[1];\n  assign n[3] = a[2];\n" +
		cellLine + "\n  assign o[0] = n[0];\nendmodule\n"
}

// FuzzParseMatchesOracle holds the one-pass line matcher to the importer
// it replaced: whatever the bytes, both accept or both reject, with the
// same error text, and what they accept is the same netlist — every
// cell's kind, name, pins and init, every net number and port.
func FuzzParseMatchesOracle(f *testing.F) {
	for _, src := range roundTripSeeds() {
		f.Add(src)
	}
	for _, src := range netlist.BadSources {
		f.Add(src)
	}
	for _, line := range []string{
		"assign n[0] = n[1]&n[2];",
		"assign n[0] = ~ ( n[1] | n[2] );",
		"assign n[0] = ~(n[1] ^ n[2]",
		"assign n[0] =\tn[1]\t^ n[2] ;\t// x",
		"assign n[0] = n [ 1 ] ? n[2 ] : n[ 3];",
		"assign n[0] = ~(( n[1]&n[2] )| n[3] ); // clkbuf clkgate g",
		"assign n[0] = ~\tn[1]; //",
		"assign n[0] = n[1] & n[2]; // clkgate cg",
		"assign n[0] = n[1]; // clkbuf cb",
		"assign n[0] = 1'b1; //",
		"assign n[0] = n[1]; junk; // t",
		"assign  n[0] = n[1] | n[2];//",
		"// a comment\n  assign n[0] = n[1] & n[3];",
	} {
		f.Add(spacedModule(line))
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkMatchesOracle(t, "string", src, netlist.ParseVerilog, netlist.OracleParse)
	})
}

// TestParseMatchesOracle runs the oracle comparison over every real
// netlist the repository has, through the length-reporting string reader
// and through a 7-byte chunk reader that reports no length (so both
// reservation paths are held to the oracle).
func TestParseMatchesOracle(t *testing.T) {
	sources := map[string]string{
		"alu":      alu.Build().Netlist.Verilog(),
		"fpu":      fpu.Build().Netlist.Verilog(),
		"zoo":      netlist.GateZoo(t).Verilog(),
		"pipeline": synth.PipelineForCells(10_000).Build().Verilog(),
	}
	chunked := func(read func(io.Reader) (*netlist.Netlist, error)) func(string) (*netlist.Netlist, error) {
		return func(src string) (*netlist.Netlist, error) { return read(netlist.NewChunkReader(src, 7)) }
	}
	for name, src := range sources {
		checkMatchesOracle(t, name+"/string", src, netlist.ParseVerilog, netlist.OracleParse)
		checkMatchesOracle(t, name+"/chunked", src, chunked(netlist.ParseVerilogReader), chunked(netlist.OracleParseReader))
	}
}

func checkMatchesOracle(t *testing.T, what, src string, parse, oracle func(string) (*netlist.Netlist, error)) {
	t.Helper()
	got, err := parse(src)
	want, werr := oracle(src)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%s: importer error %v, oracle error %v", what, err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("%s: importer error %q, oracle error %q", what, err, werr)
		}
	case netlist.Signature(got) != netlist.Signature(want):
		t.Fatalf("%s: importer and oracle built different netlists", what)
	}
}

// TestVerilogRoundTripFPU runs the fuzz property once over the largest
// netlist in the repository (too big to be a productive fuzz seed).
func TestVerilogRoundTripFPU(t *testing.T) {
	checkRoundTrip(t, fpu.Build().Netlist.Verilog())
}

func checkRoundTrip(t *testing.T, src string) {
	t.Helper()
	nl, err := netlist.ParseVerilog(src) // contract 1: no panic
	if err != nil {
		return
	}
	v1 := nl.Verilog()
	nl2, err := netlist.ParseVerilog(v1)
	if err != nil {
		t.Fatalf("re-parse of own export failed: %v\nexport:\n%s", err, v1)
	}

	// Contract 2a: structure survives the round trip.
	if len(nl2.Cells) != len(nl.Cells) {
		t.Fatalf("cell count %d -> %d after round trip", len(nl.Cells), len(nl2.Cells))
	}
	for k := cell.Kind(0); int(k) < cell.NumKinds; k++ {
		if nl.CountKind(k) != nl2.CountKind(k) {
			t.Fatalf("kind %v: %d -> %d after round trip", k, nl.CountKind(k), nl2.CountKind(k))
		}
	}
	if len(nl2.Inputs) != len(nl.Inputs) || len(nl2.Outputs) != len(nl.Outputs) {
		t.Fatalf("port counts changed: in %d->%d out %d->%d",
			len(nl.Inputs), len(nl2.Inputs), len(nl.Outputs), len(nl2.Outputs))
	}
	for i, p := range nl.Inputs {
		if len(nl2.Inputs[i].Bits) != len(p.Bits) {
			t.Fatalf("input %s width %d -> %d", p.Name, len(p.Bits), len(nl2.Inputs[i].Bits))
		}
	}
	for i, p := range nl.Outputs {
		if len(nl2.Outputs[i].Bits) != len(p.Bits) {
			t.Fatalf("output %s width %d -> %d", p.Name, len(p.Bits), len(nl2.Outputs[i].Bits))
		}
	}
	if (nl.ClockRoot == netlist.NoNet) != (nl2.ClockRoot == netlist.NoNet) {
		t.Fatal("clock root presence changed across round trip")
	}

	// Contract 2b: the export is a textual fixed point once the
	// netlist has been through one parse (which canonicalizes net
	// numbering to first-appearance order).
	v2 := nl2.Verilog()
	nl3, err := netlist.ParseVerilog(v2)
	if err != nil {
		t.Fatalf("third parse failed: %v\nexport:\n%s", err, v2)
	}
	if v3 := nl3.Verilog(); v3 != v2 {
		t.Fatalf("export is not a fixed point:\nsecond:\n%s\nthird:\n%s", v2, v3)
	}
}
