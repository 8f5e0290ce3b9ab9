package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// ErrNewerVersion marks a record written by newer tooling than this
// build. Unlike corruption it must NOT be quarantined — the record is
// presumed valid, the binary is what's stale.
var ErrNewerVersion = errors.New("chaos: stale tooling")

// ErrTruncated marks data that is a strict prefix of a sealed record: a
// header cut off before its line ends, or a whole header followed by
// fewer payload bytes than it declares. That is what a write cut short
// leaves; a record whose header and payload are all there but do not
// verify is corruption instead. (A flip that raises the declared length
// is the one corruption that looks the same.)
var ErrTruncated = errors.New("chaos: sealed record truncated")

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

// EnvelopeMagic starts every sealed record. A JSON payload can never
// begin with it, so a reader of an append-only log of sealed records
// resumes at the next one after a corrupt stretch by looking for it.
const EnvelopeMagic = "vega-rec "

// headerFormat is the envelope's header line.
const headerFormat = "%sv%d crc32c=%08x len=%d\n"

// maxHeader bounds a header line: the magic, the version, eight hex
// digits and a length of up to 19 digits.
const maxHeader = 64

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64 — sealing is not allowed to become a persistence tax.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps payload in the current envelope.
func Seal(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+48)
	out = fmt.Appendf(out, headerFormat, EnvelopeMagic, EnvelopeVersion, crc32.Checksum(payload, crcTable), len(payload))
	return append(out, payload...)
}

// Open unwraps a record: it verifies the header (version, length,
// checksum) and returns the payload. Anything else returns an error
// describing exactly what broke — the caller's cue to quarantine the
// file. sealed reports whether data began with the envelope magic at
// all; it is false only alongside an error.
func Open(data []byte) (payload []byte, sealed bool, err error) {
	payload, n, err := OpenFrame(data)
	if err == nil && n != len(data) {
		return nil, true, fmt.Errorf("chaos: sealed record corrupt: %d bytes follow the payload", len(data)-n)
	}
	return payload, bytes.HasPrefix(data, []byte(EnvelopeMagic)), err
}

// headerPrefix starts every header this build writes.
var headerPrefix = fmt.Sprintf("%sv%d crc32c=", EnvelopeMagic, EnvelopeVersion)

// parseHeader reads a header line without its newline. One of this
// build's version must be spelled exactly as Seal spells it; of another
// version only the version is read.
func parseHeader(line string) (version int, sum uint32, n int, ok bool) {
	rest, ok := strings.CutPrefix(line, headerPrefix)
	if !ok {
		if _, err := fmt.Sscanf(line, EnvelopeMagic+"v%d ", &version); err != nil || version == EnvelopeVersion {
			return 0, 0, 0, false
		}
		return version, 0, 0, true
	}
	hex, length, ok := strings.Cut(rest, " len=")
	s, err := strconv.ParseUint(hex, 16, 32)
	if !ok || err != nil || len(hex) != 8 || strings.ToLower(hex) != hex {
		return 0, 0, 0, false
	}
	if n, err = strconv.Atoi(length); err != nil || strconv.Itoa(n) != length {
		return 0, 0, 0, false
	}
	return EnvelopeVersion, uint32(s), n, true
}

// OpenFrame is Open for the sealed record at the start of data, which
// may run on into more of them (an append-only log is their
// concatenation): it also returns the record's length in data. An error
// wrapping ErrTruncated means data ends inside the record.
func OpenFrame(data []byte) (payload []byte, n int, err error) {
	if !bytes.HasPrefix(data, []byte(EnvelopeMagic)) {
		if bytes.HasPrefix([]byte(EnvelopeMagic), data) {
			return nil, 0, fmt.Errorf("%w: %d bytes of the envelope header", ErrTruncated, len(data))
		}
		return nil, 0, errors.New("chaos: record is not sealed: no envelope header")
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		if len(data) < maxHeader {
			return nil, 0, fmt.Errorf("%w: header line cut off", ErrTruncated)
		}
		return nil, 0, fmt.Errorf("chaos: sealed record corrupt: no header line")
	}
	version, sum, n, ok := parseHeader(string(data[:nl]))
	if !ok {
		return nil, 0, fmt.Errorf("chaos: sealed record corrupt: bad header %q", data[:nl])
	}
	if version > EnvelopeVersion {
		return nil, 0, fmt.Errorf("%w: record envelope v%d is newer than this build understands (v%d)",
			ErrNewerVersion, version, EnvelopeVersion)
	}
	if version < EnvelopeVersion {
		return nil, 0, fmt.Errorf("chaos: sealed record corrupt: no envelope v%d was ever written", version)
	}
	if n < 0 {
		return nil, 0, fmt.Errorf("chaos: sealed record corrupt: header says %d bytes", n)
	}
	if n > len(data)-nl-1 {
		return nil, 0, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrTruncated, len(data)-nl-1, n)
	}
	payload = data[nl+1 : nl+1+n]
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, 0, fmt.Errorf("chaos: sealed record corrupt: crc32c %08x, header says %08x", got, sum)
	}
	return payload, nl + 1 + n, nil
}
