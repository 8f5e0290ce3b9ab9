package lift

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/module"
)

func TestSuiteJSONRoundTrip(t *testing.T) {
	m, pairs := agedALUPairs(t)
	orig, _ := buildALUSuite(t, m, pairs, true)

	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version":1`) {
		t.Error("version tag missing")
	}
	var back Suite
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Unit != orig.Unit || len(back.Cases) != len(orig.Cases) {
		t.Fatalf("shape lost: %s/%d vs %s/%d", back.Unit, len(back.Cases), orig.Unit, len(orig.Cases))
	}
	for i := range orig.Cases {
		a, b := orig.Cases[i], back.Cases[i]
		if a.Spec != b.Spec || a.CoverOp != b.CoverOp || a.CoverKind != b.CoverKind ||
			a.Conditioned != b.Conditioned || len(a.Ops) != len(b.Ops) {
			t.Fatalf("case %d differs:\n%+v\n%+v", i, a, b)
		}
		for j := range a.Ops {
			if a.Ops[j] != b.Ops[j] || a.Expected[j] != b.Expected[j] {
				t.Fatalf("case %d op %d differs", i, j)
			}
		}
	}

	// The deserialized suite must run: identical image, clean pass on
	// the healthy gate-level CPU.
	imgA, imgB := mustImage(t, orig), mustImage(t, &back)
	if len(imgA.Words) != len(imgB.Words) {
		t.Fatalf("image sizes differ: %d vs %d", len(imgA.Words), len(imgB.Words))
	}
	for i := range imgA.Words {
		if imgA.Words[i] != imgB.Words[i] {
			t.Fatalf("image word %d differs", i)
		}
	}
	c := cpu.New(memSize)
	c.ALU = module.NewDriverOn(m, m.Netlist)
	c.Load(imgB)
	if halt := c.Run(50_000_000); halt != cpu.HaltExit || c.ExitCode != 0 {
		t.Fatalf("deserialized suite failed on healthy CPU: %v", halt)
	}
}

func TestSuiteJSONRejectsBadDocs(t *testing.T) {
	var s Suite
	bad := []string{
		`{"version":99,"unit":"ALU","cases":[]}`,
		`{"version":1,"unit":"ALU","cases":[{"path_type":"diag","c":"0","edge":"any","ops":[{"op":0}],"expected":[{}],"cover_kind":"result"}]}`,
		`{"version":1,"unit":"ALU","cases":[{"path_type":"setup","c":"2","edge":"any","ops":[{"op":0}],"expected":[{}],"cover_kind":"result"}]}`,
		`{"version":1,"unit":"ALU","cases":[{"path_type":"setup","c":"0","edge":"any","ops":[],"expected":[],"cover_kind":"result"}]}`,
		`{"version":1,"unit":"ALU","cases":[{"path_type":"setup","c":"0","edge":"any","ops":[{"op":0}],"expected":[{}],"cover_kind":"banana"}]}`,
	}
	for i, doc := range bad {
		if err := json.Unmarshal([]byte(doc), &s); err == nil {
			t.Errorf("bad doc %d accepted", i)
		}
	}
}
