package integrate

import (
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lift"
)

// asmTemplate is one generated test function's inline assembly: the
// template as the assembler receives it, and the clobber list.
type asmTemplate struct {
	text     string
	clobbers map[string]bool
}

// asmTemplates extracts every __asm__ statement of generated C. Each
// template line is a string literal; strconv.Unquote undoes exactly the
// C escapes GenerateC emits (\n, \" and \\, which Go shares).
func asmTemplates(t *testing.T, src string) []asmTemplate {
	t.Helper()
	var out []asmTemplate
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "__asm__ volatile (" {
			continue
		}
		var text strings.Builder
		for i++; strings.HasPrefix(strings.TrimSpace(lines[i]), `"`); i++ {
			s, err := strconv.Unquote(strings.TrimSpace(lines[i]))
			if err != nil {
				t.Fatalf("template line %q is not one C string literal: %v", lines[i], err)
			}
			text.WriteString(s)
		}
		// Then the output, input and clobber operand lists, one line each.
		list := strings.TrimSpace(lines[i+2])
		if !strings.HasPrefix(list, ":") || !strings.HasSuffix(list, ");") {
			t.Fatalf("clobber line %q", lines[i+2])
		}
		tpl := asmTemplate{text: text.String(), clobbers: map[string]bool{}}
		for _, c := range strings.Split(strings.TrimSuffix(strings.TrimPrefix(list, ":"), ");"), ",") {
			name, err := strconv.Unquote(strings.TrimSpace(c))
			if err != nil {
				t.Fatalf("clobber %q: %v", c, err)
			}
			tpl.clobbers[name] = true
		}
		out = append(out, tpl)
	}
	return out
}

// writtenRegs reads, from an assembly template's own text, the registers
// its instructions write: each mnemonic's first operand unless it has no
// destination, and fcsr for a CSR access or a flag-raising FP op.
func writtenRegs(text string) map[string]bool {
	noDest := map[string]bool{
		"beq": true, "bne": true, "blt": true, "bge": true, "bltu": true, "bgeu": true,
		"sb": true, "sh": true, "sw": true, "fsw": true, "j": true, "ecall": true, "ebreak": true,
	}
	noFlags := map[string]bool{
		"flw": true, "fsw": true, "fmv.x.w": true, "fmv.w.x": true, "fclass.s": true,
		"fsgnj.s": true, "fsgnjn.s": true, "fsgnjx.s": true,
	}
	w := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(f) > 0 && strings.HasSuffix(f[0], ":") {
			f = f[1:] // a local label
		}
		if len(f) == 0 || strings.HasPrefix(f[0], "/*") {
			continue
		}
		if strings.HasPrefix(f[0], "csrr") || strings.HasPrefix(f[0], "f") && !noFlags[f[0]] {
			w["fcsr"] = true
		}
		if noDest[f[0]] || len(f) < 2 || f[1] == "zero" || f[1] == "%[ok]" {
			continue
		}
		w[f[1]] = true
	}
	return w
}

func generatedTemplates(t *testing.T) []asmTemplate {
	t.Helper()
	src, err := GenerateC([]*lift.Suite{smallSuite(3), fpuSuite(2)})
	if err != nil {
		t.Fatal(err)
	}
	tpls := asmTemplates(t, src)
	if len(tpls) != 5 {
		t.Fatalf("found %d asm templates, want 5", len(tpls))
	}
	return tpls
}

// TestGenerateCTemplates: every generated template, C-unescaped, has
// one instruction per line — a real newline ends each, no literal
// backslash or second statement survives — and its clobber list names
// every register the template's own text writes.
func TestGenerateCTemplates(t *testing.T) {
	sawF, sawFcsr := false, false
	for k, tpl := range generatedTemplates(t) {
		if !strings.HasSuffix(tpl.text, "\n") {
			t.Errorf("template %d does not end in a newline", k)
		}
		lines := strings.Split(strings.TrimSuffix(tpl.text, "\n"), "\n")
		if len(lines) < 5 {
			t.Errorf("template %d has %d lines: the instructions are not on lines of their own", k, len(lines))
		}
		for _, line := range lines {
			if strings.TrimSpace(line) == "" || strings.ContainsAny(line, `\;`) {
				t.Errorf("template %d line %q is not one instruction", k, line)
			}
		}
		for r := range writtenRegs(tpl.text) {
			if !tpl.clobbers[r] {
				t.Errorf("template %d writes %s, which its clobber list %v omits", k, r, tpl.clobbers)
			}
			sawF = sawF || strings.HasPrefix(r, "f") && r != "fcsr"
			sawFcsr = sawFcsr || r == "fcsr"
		}
	}
	if !sawF || !sawFcsr {
		t.Error("no template writes an f-register and fcsr: the FPU cases prove nothing")
	}
}

// TestGenerateCAssembles hands every generated template, its output
// operand bound to a0, to LLVM's RISC-V assembler.
func TestGenerateCAssembles(t *testing.T) {
	mc, err := exec.LookPath("llvm-mc")
	if err != nil {
		t.Skip("llvm-mc is not on PATH")
	}
	if out, err := exec.Command(mc, "--version").Output(); err != nil || !strings.Contains(string(out), "riscv32") {
		t.Skip("llvm-mc has no riscv32 target")
	}
	for k, tpl := range generatedTemplates(t) {
		cmd := exec.Command(mc, "-triple=riscv32", "-mattr=+m,+f", "-filetype=null")
		cmd.Stdin = strings.NewReader(strings.ReplaceAll(tpl.text, "%[ok]", "a0"))
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("template %d does not assemble: %v\n%s", k, err, out)
		}
	}
}
