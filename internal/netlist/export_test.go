package netlist

import "io"

// Hooks for the external test package, whose tests need the ALU, FPU
// and synthesized netlists (importing those from here is a cycle).
var (
	OracleParse       = oracleParse
	OracleParseReader = oracleParseReader
	Signature         = signature
	GateZoo           = gateZoo
	BadSources        = badSources
)

// NewChunkReader returns a reader that hands out src at most chunk bytes
// per Read and does not report its length.
func NewChunkReader(src string, chunk int) io.Reader {
	return &chunkReader{data: []byte(src), chunk: chunk}
}
