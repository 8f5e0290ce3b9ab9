//go:build !linux

package bench

import "os"

// The ledger is defined on Linux; elsewhere the harness still builds
// and the memory and filesystem readings are absent.

func fsType(string) string               { return "unknown" }
func peakRSSMB(*os.ProcessState) float64 { return 0 }
func selfPeakRSSMB() float64             { return 0 }
