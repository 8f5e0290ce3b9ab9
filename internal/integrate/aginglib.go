package integrate

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/lift"
)

// GenerateC renders the software aging library of §3.4.1: a C source
// file in which every generated test case is an inline-assembly
// function, plus helpers that run the suite sequentially or in a
// (xorshift) random order and report detections through a caller-
// supplied handler — the hook an exception-capable language wrapper
// raises from. It fails if a test case does not assemble: an empty
// body would report "pass" for every input.
func GenerateC(suites []*lift.Suite) (string, error) {
	var b strings.Builder
	b.WriteString(`/* vega_aging.c — generated by Vega Test Integration.
 *
 * Each vega_test_* function executes one aging-detection test case and
 * returns 0 on pass, 1 on detected silent data corruption. vega_run_all
 * and vega_run_random schedule the suite; vega_set_handler installs a
 * callback invoked on detection (language wrappers map it to an
 * exception).
 */
#include <stdint.h>

typedef void (*vega_handler_t)(int test_index);
static vega_handler_t vega_handler;
void vega_set_handler(vega_handler_t h) { vega_handler = h; }

static uint32_t vega_rng_state = 0x56454741u;
static uint32_t vega_rng(void) {
    uint32_t x = vega_rng_state;
    x ^= x << 13; x ^= x >> 17; x ^= x << 5;
    return vega_rng_state = x;
}

`)
	var names []string
	idx := 0
	for _, s := range suites {
		for _, tc := range s.Cases {
			name := fmt.Sprintf("vega_test_%03d_%s", idx, tc.Name)
			names = append(names, name)
			if err := writeCTest(&b, name, tc); err != nil {
				return "", err
			}
			idx++
		}
	}

	fmt.Fprintf(&b, "typedef int (*vega_test_t)(void);\nstatic const vega_test_t vega_tests[%d] = {\n", len(names))
	for _, n := range names {
		fmt.Fprintf(&b, "    %s,\n", n)
	}
	b.WriteString("};\n\n")
	b.WriteString(`int vega_num_tests(void) { return sizeof(vega_tests) / sizeof(vega_tests[0]); }

/* Run every test once, in order. Returns the number of detections. */
int vega_run_all(void) {
    int detected = 0;
    for (int i = 0; i < vega_num_tests(); i++) {
        if (vega_tests[i]()) {
            detected++;
            if (vega_handler) vega_handler(i);
        }
    }
    return detected;
}

/* Run n randomly chosen tests. Returns the number of detections. */
int vega_run_random(int n) {
    int detected = 0;
    for (int k = 0; k < n; k++) {
        int i = (int)(vega_rng() % (uint32_t)vega_num_tests());
        if (vega_tests[i]()) {
            detected++;
            if (vega_handler) vega_handler(i);
        }
    }
    return detected;
}
`)
	return b.String(), nil
}

// writeCTest renders one test case as a C function whose body is the
// lifted assembly in GCC extended-asm form, with operands bound to C
// variables for clarity (§3.4.1).
func writeCTest(b *strings.Builder, name string, tc *lift.TestCase) error {
	fmt.Fprintf(b, "/* %s: %s path %s */\n", tc.Unit, tc.Spec.Type, tc.Name)
	fmt.Fprintf(b, "int %s(void) {\n", name)
	fmt.Fprintf(b, "    uint32_t ok = 1;\n")
	for i, op := range tc.Ops {
		fmt.Fprintf(b, "    const uint32_t a%d = 0x%08xu, b%d = 0x%08xu, exp%d = 0x%08xu;\n",
			i, op.A, i, op.B, i, tc.Expected[i].Result)
	}
	b.WriteString("    __asm__ volatile (\n")
	a := isa.NewAsm()
	tc.EmitInto(a, "9f")
	insts, err := asmInsts(a)
	if err != nil {
		return fmt.Errorf("aging library: test case %s: %w", tc.Name, err)
	}
	b.WriteString("        \"/* lifted test body */\\n\"\n")
	for _, inst := range insts {
		fmt.Fprintf(b, "        %q\n", inst.String()+"\n")
	}
	b.WriteString("        \"j 8f\\n\"\n        \"9: li %[ok], 0\\n\"\n        \"8:\\n\"\n")
	fmt.Fprintf(b, "        : [ok] \"+r\"(ok)\n        :\n        : %s\"memory\");\n", clobbers(insts))
	b.WriteString("    return ok == 0;\n}\n\n")
	return nil
}

// clobbers lists, each quoted and followed by ", ", every register the
// body writes: its integer and f-register destinations, and fcsr when it
// runs a floating-point op or a CSR write, both of which set FP flags.
func clobbers(insts []isa.Inst) string {
	var x, f [32]bool
	fcsr := false
	for _, in := range insts {
		rd, fp, ok := in.Writes()
		switch {
		case !ok:
		case fp:
			f[rd] = true
		case rd != isa.Zero:
			x[rd] = true
		}
		fcsr = fcsr || in.Op >= isa.CSRRW && in.Op <= isa.CSRRC || in.Op >= isa.FADDS
	}
	var b strings.Builder
	for r := range x {
		if x[r] {
			fmt.Fprintf(&b, "%q, ", isa.Reg(r).String())
		}
	}
	for r := range f {
		if f[r] {
			fmt.Fprintf(&b, "\"f%d\", ", r)
		}
	}
	if fcsr {
		b.WriteString("\"fcsr\", ")
	}
	return b.String()
}

// asmInsts extracts the emitted instructions (labels resolved against a
// local fail trampoline is handled textually above, so unresolved
// branches keep their mnemonic form).
func asmInsts(a *isa.Asm) ([]isa.Inst, error) {
	a.Label("9f") // satisfy the fail-label reference for rendering
	img, err := a.Assemble()
	if err != nil {
		return nil, err
	}
	return img.Insts, nil
}

// GenerateGoWrapper renders a Go wrapper (cgo) for the aging library,
// turning detections into Go errors — the "exception" integration of
// §3.4.1 for languages with error handling.
func GenerateGoWrapper() string {
	return `// Package vegaaging wraps the generated Vega aging library.
package vegaaging

/*
#include "vega_aging.c"
*/
import "C"
import "fmt"

// ErrSDC reports a detected aging-related silent data corruption.
type ErrSDC struct{ TestIndex int }

func (e ErrSDC) Error() string {
	return fmt.Sprintf("vega: aging-related SDC detected by test %d", e.TestIndex)
}

// RunAll executes the whole suite once; it returns ErrSDC on detection.
func RunAll() error {
	if n := int(C.vega_run_all()); n > 0 {
		return ErrSDC{TestIndex: -1}
	}
	return nil
}

// RunRandom executes n randomly scheduled tests.
func RunRandom(n int) error {
	if d := int(C.vega_run_random(C.int(n))); d > 0 {
		return ErrSDC{TestIndex: -1}
	}
	return nil
}
`
}
