package vega_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goTool finds the go command; go test puts its own first on PATH.
func goTool(t *testing.T) string {
	t.Helper()
	g, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command on PATH: %v", err)
	}
	return g
}

// TestBinariesDoNotLinkReference: no binary links the scalar reference
// interpreter (internal/sim), which only tests drive. The one exception
// is cmd/vega-bench, whose internal/bench still names the sim.Profile
// alias.
func TestBinariesDoNotLinkReference(t *testing.T) {
	const (
		reference = "repro/internal/sim"
		exempt    = "repro/cmd/vega-bench"
	)
	cmd := exec.Command(goTool(t), "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}} {{join .Deps " "}}{{end}}`, "./...")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		mains++
		if fields[0] == exempt {
			continue
		}
		for _, dep := range fields[1:] {
			if dep == reference {
				t.Errorf("%s links %s", fields[0], reference)
			}
		}
	}
	if mains < 6 {
		t.Fatalf("go list found %d main packages, want at least the three commands and three examples", mains)
	}
}

// TestExamplesStdout runs the three examples and compares their stdout
// to testdata/examples/NAME.golden byte for byte. fleet-screening's
// listen address and job durations vary from run to run, so they are
// masked in its output before the comparison.
func TestExamplesStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the three examples, about 4 s")
	}
	masks := map[string][]struct {
		re   *regexp.Regexp
		repl string
	}{
		"fleet-screening": {
			{regexp.MustCompile(`http://127\.0\.0\.1:[0-9]+`), "http://ADDR"},
			{regexp.MustCompile(` [0-9]+ms`), " Nms"},
		},
	}
	dir := t.TempDir()
	for _, name := range []string{"quickstart", "datacenter-monitor", "fleet-screening"} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			if out, err := exec.Command(goTool(t), "build", "-o", bin, "./examples/"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			var stdout, stderr bytes.Buffer
			run := exec.Command(bin)
			run.Dir, run.Stdout, run.Stderr = dir, &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			got := stdout.Bytes()
			for _, m := range masks[name] {
				got = m.re.ReplaceAll(got, []byte(m.repl))
			}
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(gl), len(wl)); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("stdout differs from the golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
				}
			}
		})
	}
}
