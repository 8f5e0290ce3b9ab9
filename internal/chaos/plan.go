package chaos

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// FaultKind enumerates the injectable I/O faults.
type FaultKind int

const (
	// Crash kills the filesystem BEFORE the step executes: the step and
	// everything after it fail with ErrCrashed, exactly as if the
	// process died between the previous step and this one.
	Crash FaultKind = iota
	// Torn applies to a WriteFile or AppendFile step: the first Arg
	// bytes reach the file, then the filesystem crashes — the classic
	// power-loss tear the envelope checksum must catch. A torn Truncate
	// cuts only down to Arg bytes past its size before the crash, and a
	// torn ReadFile or ReadAt returns the first Arg bytes.
	Torn
	// Flip applies to a WriteFile, AppendFile, ReadFile or ReadAt step:
	// bit Arg of the data is inverted and the operation otherwise succeeds —
	// silent corruption with no error anywhere. A flipped Truncate
	// inverts bit Arg of what the cut keeps.
	Flip
	// NoSpace fails the step with ENOSPC; the filesystem survives.
	NoSpace
	// IOErr fails the step with EIO; the filesystem survives.
	IOErr
)

func (k FaultKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Torn:
		return "torn"
	case Flip:
		return "flip"
	case NoSpace:
		return "enospc"
	case IOErr:
		return "eio"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one planned fault: Kind fires at the Step-th I/O operation
// (1-based, counting every FS call). Arg is the tear length for Torn
// and the bit index for Flip.
type Fault struct {
	Step int
	Kind FaultKind
	Arg  int
}

// Plan is a deterministic fault schedule keyed by I/O step.
type Plan struct {
	Faults []Fault
}

// ParsePlan parses the comma-separated textual plan the daemons accept
// on -chaos: "crash@17", "torn@5:12", "flip@7:3", "enospc@9", "eio@4".
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		kind, rest, ok := strings.Cut(tok, "@")
		if !ok {
			return Plan{}, fmt.Errorf("chaos: fault %q: want kind@step", tok)
		}
		f := Fault{}
		switch kind {
		case "crash":
			f.Kind = Crash
		case "torn":
			f.Kind = Torn
		case "flip":
			f.Kind = Flip
		case "enospc":
			f.Kind = NoSpace
		case "eio":
			f.Kind = IOErr
		default:
			return Plan{}, fmt.Errorf("chaos: unknown fault kind %q in %q", kind, tok)
		}
		var err error
		if f.Kind == Torn || f.Kind == Flip {
			if _, err = fmt.Sscanf(rest, "%d:%d", &f.Step, &f.Arg); err != nil {
				return Plan{}, fmt.Errorf("chaos: fault %q: want %s@step:arg", tok, kind)
			}
		} else if _, err = fmt.Sscanf(rest, "%d", &f.Step); err != nil {
			return Plan{}, fmt.Errorf("chaos: fault %q: want %s@step", tok, kind)
		}
		if f.Step < 1 {
			return Plan{}, fmt.Errorf("chaos: fault %q: steps are 1-based", tok)
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}

// String renders the plan in ParsePlan's syntax, sorted by step.
func (p Plan) String() string {
	fs := append([]Fault(nil), p.Faults...)
	sort.Slice(fs, func(a, b int) bool { return fs[a].Step < fs[b].Step })
	var parts []string
	for _, f := range fs {
		switch f.Kind {
		case Torn, Flip:
			parts = append(parts, fmt.Sprintf("%s@%d:%d", f.Kind, f.Step, f.Arg))
		default:
			parts = append(parts, fmt.Sprintf("%s@%d", f.Kind, f.Step))
		}
	}
	return strings.Join(parts, ",")
}

// Injected wraps an FS with a fault plan. Every operation counts one
// step; the plan decides what the step does. After a Crash or Torn
// fault fires, the filesystem is dead: every later operation returns
// ErrCrashed until a fresh FS is constructed over the directory — the
// restart the torture harness performs.
type Injected struct {
	under FS
	// ExitOnCrash upgrades crash faults from "fail every later
	// operation" to an actual os.Exit(137) — the mode the live daemons
	// use under -chaos so an external supervisor sees a real death.
	ExitOnCrash bool

	mu      sync.Mutex
	step    int
	crashed bool
	faults  map[int]Fault
}

// NewInjected wraps under with plan. An empty plan makes Injected a
// pure step counter (the torture harness's first pass).
func NewInjected(under FS, plan Plan) *Injected {
	f := &Injected{under: under, faults: make(map[int]Fault, len(plan.Faults))}
	for _, ft := range plan.Faults {
		f.faults[ft.Step] = ft
	}
	return f
}

// Steps returns how many I/O operations have been attempted so far.
func (f *Injected) Steps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step
}

// Crashed reports whether a crash-class fault has fired.
func (f *Injected) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// begin advances the step counter and resolves the fault for this
// operation. It returns an error the operation must propagate (crashed
// filesystem, Crash/NoSpace/IOErr fault) or the Fault to apply in-line
// (Torn, Flip).
func (f *Injected) begin() (Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return Fault{}, ErrCrashed
	}
	f.step++
	ft, ok := f.faults[f.step]
	if !ok {
		return Fault{}, nil
	}
	switch ft.Kind {
	case Crash:
		f.die()
		return Fault{}, ErrCrashed
	case NoSpace:
		return Fault{}, &os.PathError{Op: "chaos", Err: syscall.ENOSPC}
	case IOErr:
		return Fault{}, &os.PathError{Op: "chaos", Err: syscall.EIO}
	}
	return ft, nil
}

// die marks the filesystem dead (caller holds mu).
func (f *Injected) die() {
	if f.ExitOnCrash {
		fmt.Fprintf(os.Stderr, "chaos: crash point at I/O step %d — aborting process\n", f.step)
		os.Exit(137)
	}
	f.crashed = true
}

// crash marks the filesystem dead once a torn step has run.
func (f *Injected) crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.die()
}

// flipBit inverts bit number bit (wrapping over the payload) in a copy
// of data; empty payloads pass through.
func flipBit(data []byte, bit int) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	i := (bit / 8) % len(out)
	out[i] ^= 1 << (bit % 8)
	return out
}

func (f *Injected) WriteFile(name string, data []byte, perm os.FileMode) error {
	ft, err := f.begin()
	if err != nil {
		return err
	}
	switch ft.Kind {
	case Torn:
		n := min(ft.Arg, len(data))
		_ = f.under.WriteFile(name, data[:n], perm)
		f.crash()
		return ErrCrashed
	case Flip:
		return f.under.WriteFile(name, flipBit(data, ft.Arg), perm)
	}
	return f.under.WriteFile(name, data, perm)
}

func (f *Injected) AppendFile(name string, data []byte, perm os.FileMode) error {
	ft, err := f.begin()
	if err != nil {
		return err
	}
	switch ft.Kind {
	case Torn:
		_ = f.under.AppendFile(name, data[:min(ft.Arg, len(data))], perm)
		f.crash()
		return ErrCrashed
	case Flip:
		data = flipBit(data, ft.Arg)
	}
	return f.under.AppendFile(name, data, perm)
}

func (f *Injected) Truncate(name string, size int64) error {
	ft, err := f.begin()
	if err != nil {
		return err
	}
	switch ft.Kind {
	case Torn:
		if data, err := f.under.ReadFile(name); err == nil {
			_ = f.under.Truncate(name, min(size+int64(ft.Arg), int64(len(data))))
		}
		f.crash()
		return ErrCrashed
	case Flip:
		if err := f.under.Truncate(name, size); err != nil {
			return err
		}
		data, err := f.under.ReadFile(name)
		if err != nil {
			return err
		}
		return f.under.WriteFile(name, flipBit(data, ft.Arg), 0o644)
	}
	return f.under.Truncate(name, size)
}

func (f *Injected) ReadFile(name string) ([]byte, error) {
	return f.read(func() ([]byte, error) { return f.under.ReadFile(name) })
}

func (f *Injected) ReadAt(name string, off int64, n int) ([]byte, error) {
	return f.read(func() ([]byte, error) { return f.under.ReadAt(name, off, n) })
}

// read is one read step: the bytes get, torn or flipped as planned.
func (f *Injected) read(get func() ([]byte, error)) ([]byte, error) {
	ft, err := f.begin()
	if err != nil {
		return nil, err
	}
	data, err := get()
	if err != nil {
		return nil, err
	}
	switch ft.Kind {
	case Torn:
		return data[:min(ft.Arg, len(data))], nil
	case Flip:
		return flipBit(data, ft.Arg), nil
	}
	return data, nil
}

func (f *Injected) ReadDir(name string) ([]os.DirEntry, error) {
	if _, err := f.begin(); err != nil {
		return nil, err
	}
	return f.under.ReadDir(name)
}

func (f *Injected) Rename(oldpath, newpath string) error {
	if _, err := f.begin(); err != nil {
		return err
	}
	return f.under.Rename(oldpath, newpath)
}

func (f *Injected) Remove(name string) error {
	if _, err := f.begin(); err != nil {
		return err
	}
	return f.under.Remove(name)
}

func (f *Injected) MkdirAll(name string, perm os.FileMode) error {
	if _, err := f.begin(); err != nil {
		return err
	}
	return f.under.MkdirAll(name, perm)
}

func (f *Injected) SyncFile(name string) error {
	if _, err := f.begin(); err != nil {
		return err
	}
	return f.under.SyncFile(name)
}

func (f *Injected) SyncDir(name string) error {
	if _, err := f.begin(); err != nil {
		return err
	}
	return f.under.SyncDir(name)
}
