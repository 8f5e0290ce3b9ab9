package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrNewerVersion marks a record written by newer tooling than this
// build. Unlike corruption it must NOT be quarantined — the record is
// presumed valid, the binary is what's stale.
var ErrNewerVersion = errors.New("chaos: stale tooling")

// The self-verifying record envelope. Persisted records (fleet job
// records, injection checkpoints) are wrapped in a one-line header
//
//	vega-rec v3 crc32c=xxxxxxxx len=n\n
//
// followed by the payload bytes. The CRC32C (Castagnoli) checksum turns
// silent on-disk corruption — a flipped bit, a torn tail, a truncated
// write that still parses as JSON — into a detected load error the
// caller can quarantine, instead of state that is silently wrong or a
// record that bricks every restart.
//
// Versioning: v3 is the one generation this build accepts. A record
// without the header, or one claiming an older envelope version, is as
// untrusted as a corrupt one; a record claiming a NEWER version than
// this build understands is rejected as stale tooling rather than
// misparsed.

// EnvelopeVersion is the record-format generation this build writes and
// reads (v1/v2 were un-checksummed plain JSON and are no longer read).
const EnvelopeVersion = 3

// envelopeMagic starts every sealed record. A JSON payload can never
// begin with it.
const envelopeMagic = "vega-rec "

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64 — sealing is not allowed to become a persistence tax.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps payload in the current envelope.
func Seal(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+48)
	out = fmt.Appendf(out, "%sv%d crc32c=%08x len=%d\n",
		envelopeMagic, EnvelopeVersion, crc32.Checksum(payload, crcTable), len(payload))
	return append(out, payload...)
}

// Open unwraps a record: it verifies the header (version, length,
// checksum) and returns the payload. Anything else returns an error
// describing exactly what broke — the caller's cue to quarantine the
// file. sealed reports whether data began with the envelope magic at
// all; it is false only alongside an error.
func Open(data []byte) (payload []byte, sealed bool, err error) {
	if !bytes.HasPrefix(data, []byte(envelopeMagic)) {
		return nil, false, errors.New("chaos: record is not sealed: no envelope header")
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, true, fmt.Errorf("chaos: sealed record corrupt: header line truncated")
	}
	var version int
	var sum uint32
	var n int
	if _, err := fmt.Sscanf(string(data[:nl]), envelopeMagic+"v%d crc32c=%x len=%d", &version, &sum, &n); err != nil {
		return nil, true, fmt.Errorf("chaos: sealed record corrupt: bad header %q", data[:nl])
	}
	if version > EnvelopeVersion {
		return nil, true, fmt.Errorf("%w: record envelope v%d is newer than this build understands (v%d)",
			ErrNewerVersion, version, EnvelopeVersion)
	}
	if version < EnvelopeVersion {
		return nil, true, fmt.Errorf("chaos: sealed record corrupt: no envelope v%d was ever written", version)
	}
	payload = data[nl+1:]
	if len(payload) != n {
		return nil, true, fmt.Errorf("chaos: sealed record corrupt: payload is %d bytes, header says %d",
			len(payload), n)
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, true, fmt.Errorf("chaos: sealed record corrupt: crc32c %08x, header says %08x", got, sum)
	}
	return payload, true, nil
}
