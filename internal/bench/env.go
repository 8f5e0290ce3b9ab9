package bench

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Env is the environment a result was measured in. It is part of the
// result: the same commit reads differently on another box, so every
// result file carries it.
type Env struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	FSType     string  `json:"fs_type"` // filesystem of the scratch (fleet state) directory
	LoadAvg1   float64 `json:"loadavg1"`
}

// CaptureEnv records the environment; dir is where the fleet state
// directory will live.
func CaptureEnv(dir string) Env {
	e := Env{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		FSType:     fsType(dir),
		LoadAvg1:   loadAvg1(),
	}
	// The benchmark driver runs in a checkout that is not a git
	// repository; "unknown" is then the honest answer.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg1 is the 1-minute load average (0 where /proc is absent).
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as 0, like an absent file
	return v
}
