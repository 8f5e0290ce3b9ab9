// Package chaos is the fault-injection seam for the fleet's own I/O.
//
// The rest of this repository proves robustness claims by injecting
// faults into the circuit under test and holding a differential oracle
// against the clean run. This package applies the same discipline to
// the infrastructure itself: every persistence path in the screening
// daemon (job records, campaign checkpoints, persisted results) goes
// through the FS interface below, so tests can interpose a seeded
// fault plan — torn writes, single-bit flips, ENOSPC/EIO, and crash
// points that kill the "process" at the Nth I/O step — and assert the
// recovery invariants (no accepted job lost, no corrupt record ever
// loaded, byte-identical final reports) across a restart.
//
// Three pieces:
//
//   - FS / OS: the primitive file operations the persistence layers
//     use, each one an observable "I/O step". OS is the real
//     implementation; WriteAtomic composes the primitives into the
//     durable tmp-write -> fsync -> rename -> dir-fsync sequence that
//     atomic-rename persistence actually requires (a rename without
//     the surrounding fsyncs is only atomic against crashes of the
//     process, not of the machine).
//   - Injected: an FS wrapper that executes a Plan. A crash point
//     leaves the filesystem in exactly the state the completed prefix
//     of steps produced and fails every later operation — the torture
//     harness then "reboots" by reopening the directory with a clean
//     OS and asserts recovery.
//   - Seal / Open (envelope.go): the versioned CRC32C record envelope
//     that turns silent on-disk corruption into a detected, quarantinable
//     load error.
package chaos

import (
	"errors"
	"os"
	"path/filepath"
)

// FS is the injectable filesystem seam. Each method is one I/O step
// from a fault plan's point of view.
type FS interface {
	// WriteFile creates or truncates name with data.
	WriteFile(name string, data []byte, perm os.FileMode) error
	// ReadFile reads the whole of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists name.
	ReadDir(name string) ([]os.DirEntry, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Link gives oldname's file a second name, newname, which must not
	// exist yet.
	Link(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates name and missing parents.
	MkdirAll(name string, perm os.FileMode) error
	// SyncFile fsyncs name's contents to stable storage.
	SyncFile(name string) error
	// SyncDir fsyncs the directory name, making completed renames in it
	// durable.
	SyncDir(name string) error
}

// OS is the real filesystem.
type OS struct{}

func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Link(oldname, newname string) error         { return os.Link(oldname, newname) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) MkdirAll(name string, perm os.FileMode) error {
	return os.MkdirAll(name, perm)
}

func (OS) SyncFile(name string) error { return syncPath(name, os.O_RDWR) }
func (OS) SyncDir(name string) error  { return syncPath(name, os.O_RDONLY) }

func syncPath(name string, flag int) error {
	f, err := os.OpenFile(name, flag, 0)
	if err != nil {
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteAtomic durably replaces path with data: write to path+".tmp",
// fsync the tmp file, rename over path, fsync the parent directory. A
// crash at any step leaves either the previous content or the new
// content at path — never a tear — and once WriteAtomic returns, the
// new content survives power loss (the two fsyncs are what the bare
// write-then-rename idiom was missing).
func WriteAtomic(fs FS, path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	if err := fs.WriteFile(tmp, data, perm); err != nil {
		return err
	}
	if err := fs.SyncFile(tmp); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// QuarantineDirName is the subdirectory corrupt records are moved to,
// next to the records they failed to load as.
const QuarantineDirName = "quarantine"

// Quarantine moves path into a "quarantine" subdirectory of its parent
// and returns the new location. The move is the recovery policy for
// records that fail their envelope check: the daemon keeps the evidence
// for a post-mortem and keeps serving, instead of refusing to start.
func Quarantine(fs FS, path string) (string, error) {
	dir := filepath.Join(filepath.Dir(path), QuarantineDirName)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(dir, filepath.Base(path))
	if err := fs.Rename(path, dst); err != nil {
		return "", err
	}
	return dst, nil
}

// ErrCrashed is returned by every operation of an Injected filesystem
// after its crash point fired: from the persistence layer's point of
// view the process is dead, and only a restart (a fresh FS over the
// same directory) recovers.
var ErrCrashed = errors.New("chaos: filesystem crashed (injected fault)")
