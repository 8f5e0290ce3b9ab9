package fault

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// TestFailingNetlistVerilogPinned holds the exported artefact still: the
// failing netlists of one ALU flip-flop pair, every C x check type,
// hash to the values recorded before addLFSR stopped searching for the
// cells it had just added.
func TestFailingNetlistVerilogPinned(t *testing.T) {
	nl := alu.Build().Netlist
	var dffs []netlist.CellID
	for i, c := range nl.Cells {
		if c.Kind == cell.DFF {
			dffs = append(dffs, netlist.CellID(i))
		}
	}
	start, end := dffs[0], dffs[len(dffs)-1]
	want := map[string]string{
		"setup,C=0": "42446fc7f221783036a7b583da3f4ba5722d67eb27102fcccca1a2faa025b36e",
		"setup,C=1": "d9e1deb06a458ba5d886cff787f9d84b8d68e6f808445b1459b29e021e5a0907",
		"setup,C=R": "03dfb12f64476109c24d3c695fa2947998e87ce3010bb38b51af9c6611d4ec29",
		"hold,C=0":  "12cd92ca3e074acfe69813bc3344ccacc1032ebc1d202d4cac05bdd2462c270e",
		"hold,C=1":  "0fc90b4e6c107e7cf60ab863ebdbab0d9dda191df0476138b7a873d50bf95286",
		"hold,C=R":  "43def58cc98f9a330abcf50ae5aa7295fc7cb4e012c161aa9c56330768cad2bd",
	}
	for _, ty := range []sta.PathType{sta.Setup, sta.Hold} {
		for _, c := range []CValue{C0, C1, CRandom} {
			spec := Spec{Type: ty, Start: start, End: end, C: c}
			key := fmt.Sprintf("%s,C=%s", ty, c)
			sum := sha256.Sum256([]byte(FailingNetlist(nl, spec).Verilog()))
			if got := fmt.Sprintf("%x", sum); got != want[key] {
				t.Errorf("%s: exported Verilog hashes to %s, pinned %s", key, got, want[key])
			}
		}
	}
}
