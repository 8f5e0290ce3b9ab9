package chaos

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestEnvelopeRoundTrip: Seal then Open returns the payload with
// sealed=true; a plain JSON record, which no build has written since the
// envelope exists, is an error, not a payload.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte(`{"id":"j000001","status":"queued"}`),
		{},
		[]byte("not json at all \x00\xff"),
	} {
		got, sealed, err := Open(Seal(payload))
		if err != nil || !sealed || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %q: got %q sealed=%v err=%v", payload, got, sealed, err)
		}
	}
	got, sealed, err := Open([]byte(`{"Version":1,"Unit":"ALU"}`))
	if err == nil || sealed || got != nil {
		t.Fatalf("unsealed record: got %q sealed=%v err=%v", got, sealed, err)
	}
}

// TestEnvelopeDetectsEveryBitFlip: flipping ANY single bit of a sealed
// record must never make Open return a payload that differs from the
// original. This is the whole point of the envelope.
func TestEnvelopeDetectsEveryBitFlip(t *testing.T) {
	payload := []byte(`{"id":"j000042","spec":{"kind":"campaign","unit":"ALU"},"status":"done"}`)
	sealed := Seal(payload)
	for i := range sealed {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), sealed...)
			mut[i] ^= 1 << bit
			if got, _, err := Open(mut); err == nil && !bytes.Equal(got, payload) {
				t.Fatalf("byte %d bit %d: corruption served a different payload %q", i, bit, got)
			}
		}
	}
}

// TestEnvelopeRejectsTruncation: every proper prefix of a sealed record
// fails to open (torn-write detection).
func TestEnvelopeRejectsTruncation(t *testing.T) {
	sealed := Seal([]byte(`{"results":[1,2,3,4,5,6,7,8]}`))
	for n := 0; n < len(sealed); n++ {
		if _, _, err := Open(sealed[:n]); err == nil {
			t.Fatalf("truncation to %d bytes opened cleanly", n)
		}
	}
}

// TestEnvelopeRejectsNewerVersion: a record from future tooling is
// refused with a version message, not misparsed.
func TestEnvelopeRejectsNewerVersion(t *testing.T) {
	sealed := Seal([]byte("x"))
	future := bytes.Replace(sealed, []byte("v3"), []byte("v9"), 1)
	if _, _, err := Open(future); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future-version record: err=%v", err)
	}
}

// TestPlanCodec: ParsePlan(String()) is the identity on every fault
// kind, and malformed plans are rejected.
func TestPlanCodec(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Step: 17, Kind: Crash},
		{Step: 5, Kind: Torn, Arg: 12},
		{Step: 7, Kind: Flip, Arg: 3},
		{Step: 9, Kind: NoSpace},
		{Step: 4, Kind: IOErr},
	}}
	rt, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if rt.String() != p.String() {
		t.Fatalf("codec round trip: %q vs %q", rt.String(), p.String())
	}
	for _, bad := range []string{"crash", "crash@0", "torn@3", "zap@1", "flip@a:b"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("plan %q accepted", bad)
		}
	}
}

// TestInjectedCrashPoint: the filesystem executes steps before the
// crash point, then fails that step and every later one with
// ErrCrashed.
func TestInjectedCrashPoint(t *testing.T) {
	dir := t.TempDir()
	fs := NewInjected(OS{}, Plan{Faults: []Fault{{Step: 2, Kind: Crash}}})
	if err := fs.WriteFile(filepath.Join(dir, "a"), []byte("one"), 0o644); err != nil {
		t.Fatalf("step 1 failed: %v", err)
	}
	if err := fs.WriteFile(filepath.Join(dir, "b"), []byte("two"), 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("step 2 (crash point): err=%v", err)
	}
	if _, err := fs.ReadFile(filepath.Join(dir, "a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: err=%v", err)
	}
	if !fs.Crashed() {
		t.Error("Crashed() false after crash point")
	}
	if _, err := os.Stat(filepath.Join(dir, "b")); !errors.Is(err, os.ErrNotExist) {
		t.Error("crash point executed its own step")
	}
}

// TestInjectedTornWrite: a torn write persists exactly the prefix and
// then kills the filesystem.
func TestInjectedTornWrite(t *testing.T) {
	dir := t.TempDir()
	fs := NewInjected(OS{}, Plan{Faults: []Fault{{Step: 1, Kind: Torn, Arg: 4}}})
	path := filepath.Join(dir, "rec")
	if err := fs.WriteFile(path, []byte("0123456789"), 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: err=%v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "0123" {
		t.Fatalf("torn file holds %q (err %v), want prefix 0123", got, err)
	}
}

// TestInjectedFlipAndErrno: a flip silently corrupts one bit; ENOSPC
// and EIO fail the step without killing the filesystem.
func TestInjectedFlipAndErrno(t *testing.T) {
	dir := t.TempDir()
	fs := NewInjected(OS{}, Plan{Faults: []Fault{
		{Step: 1, Kind: Flip, Arg: 0},
		{Step: 2, Kind: NoSpace},
		{Step: 3, Kind: IOErr},
	}})
	path := filepath.Join(dir, "rec")
	if err := fs.WriteFile(path, []byte{0x00}, 0o644); err != nil {
		t.Fatalf("flip step errored: %v", err)
	}
	got, _ := os.ReadFile(path)
	if len(got) != 1 || got[0] != 0x01 {
		t.Fatalf("flip wrote %v, want [1]", got)
	}
	err := fs.WriteFile(path, []byte("x"), 0o644)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("step 2: err=%v, want ENOSPC", err)
	}
	err = fs.WriteFile(path, []byte("x"), 0o644)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("step 3: err=%v, want EIO", err)
	}
	if fs.Crashed() {
		t.Error("errno faults must not kill the filesystem")
	}
	if err := fs.WriteFile(path, []byte("ok"), 0o644); err != nil {
		t.Fatalf("step 4 after errno faults: %v", err)
	}
}

// TestWriteAtomicCrashMatrix: crash WriteAtomic at each of its four
// steps; the destination must hold either the old or the new sealed
// content — never a tear — and Open must succeed on whatever is there.
func TestWriteAtomicCrashMatrix(t *testing.T) {
	oldRec := Seal([]byte(`{"gen":"old"}`))
	newRec := Seal([]byte(`{"gen":"new"}`))
	for step := 1; step <= 4; step++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "rec.json")
		if err := WriteAtomic(OS{}, path, oldRec, 0o644); err != nil {
			t.Fatal(err)
		}
		fs := NewInjected(OS{}, Plan{Faults: []Fault{{Step: step, Kind: Crash}}})
		if err := WriteAtomic(fs, path, newRec, 0o644); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash@%d: err=%v", step, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("crash@%d: record vanished: %v", step, err)
		}
		if !bytes.Equal(got, oldRec) && !bytes.Equal(got, newRec) {
			t.Fatalf("crash@%d: record torn: %q", step, got)
		}
		if _, _, err := Open(got); err != nil {
			t.Fatalf("crash@%d: surviving record does not open: %v", step, err)
		}
	}
	// Torn tmp write: the destination still holds the old record and the
	// tear is confined to the .tmp file the loader ignores.
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	if err := WriteAtomic(OS{}, path, oldRec, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := NewInjected(OS{}, Plan{Faults: []Fault{{Step: 1, Kind: Torn, Arg: 7}}})
	if err := WriteAtomic(fs, path, newRec, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn tmp: err=%v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, oldRec) {
		t.Fatalf("torn tmp write reached the destination: %q", got)
	}
}

// TestQuarantine moves a file aside and keeps its content.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst, err := Quarantine(OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, QuarantineDirName, "bad.json"); dst != want {
		t.Fatalf("quarantined to %s, want %s", dst, want)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("original still present after quarantine")
	}
	if got, _ := os.ReadFile(dst); string(got) != "junk" {
		t.Errorf("quarantined content %q", got)
	}
}

// FuzzEnvelope: for arbitrary bytes, Open never panics, never opens
// bytes that lack the magic, and Seal->Open is the identity.
func FuzzEnvelope(f *testing.F) {
	f.Add([]byte(`{"id":"j000001"}`))
	f.Add([]byte(envelopeMagic + "v3 crc32c=00000000 len=0\n"))
	f.Add(Seal([]byte("payload")))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, sealed, err := Open(data)
		if err == nil && !sealed && !bytes.Equal(got, data) {
			t.Fatalf("legacy record mutated: %q vs %q", got, data)
		}
		rt, sealed, err := Open(Seal(data))
		if err != nil || !sealed || !bytes.Equal(rt, data) {
			t.Fatalf("seal round trip: %q sealed=%v err=%v", rt, sealed, err)
		}
	})
}
