// Package par is the repository's worker pool: bounded fan-out with
// errgroup-style semantics hand-rolled on the standard library. It
// exists because every expensive phase of the Vega workflow — error
// lifting, workload profiling, suite-vs-failing-netlist replay, the
// lifetime sweep — is an independent map over a task
// list, and the determinism contract of the workflow (Parallelism=N
// must deep-equal Parallelism=1) demands index-ordered result
// collection rather than completion-ordered channels.
//
// Semantics:
//
//   - Tasks are dispensed in index order to at most `parallelism`
//     workers (0 selects runtime.NumCPU(); 1 degenerates to the plain
//     sequential loop, run inline on the caller's goroutine).
//   - Results land in a pre-sized slice at their own index, so output
//     order never depends on scheduling.
//   - First error wins: the returned error is the one from the
//     lowest-indexed failed task, and the shared context is cancelled
//     as soon as any task fails so cooperative tasks can stop early.
//     Tasks never dispensed after cancellation leave zero values.
//   - A panicking task is recovered and reported as a *PanicError
//     carrying the panic value and stack — one bad task must not kill
//     a long experiment binary.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// N resolves a parallelism knob: values <= 0 select runtime.NumCPU().
func N(parallelism int) int {
	if parallelism <= 0 {
		return runtime.NumCPU()
	}
	return parallelism
}

// PanicError wraps a panic recovered from a task.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task panicked: %v\n%s", e.Value, e.Stack)
}

// Map runs fn(ctx, i) for every i in [0, n) on up to N(parallelism)
// workers and returns the results in index order. On failure it returns
// the partially-filled result slice and the error of the lowest-indexed
// failed task, wrapped with its index.
func Map[T any](ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	p := N(parallelism)
	if p > n {
		p = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var next atomic.Int64
	worker := func() {
		for {
			if ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			runTask(ctx, i, fn, results, errs, cancel)
		}
	}

	if p == 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		wg.Add(p)
		for k := 0; k < p; k++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("par: task %d: %w", i, err)
		}
	}
	// No task failed, but the caller's context may have been cancelled
	// externally, leaving later tasks undone; surface that.
	return results, ctx.Err()
}

// runTask executes one task with panic capture; any failure records the
// error at the task's index and cancels the pool.
func runTask[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error), results []T, errs []error, cancel context.CancelFunc) {
	defer func() {
		if r := recover(); r != nil {
			errs[i] = &PanicError{Value: r, Stack: debug.Stack()}
			cancel()
		}
	}()
	v, err := fn(ctx, i)
	if err != nil {
		errs[i] = err
		cancel()
		return
	}
	results[i] = v
}

// ForEach is Map for side-effecting tasks with no result value.
func ForEach(ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, n, parallelism, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// Seed derives a per-task RNG seed from a base seed and a task index
// (splitmix64), so parallel tasks never share one rand.Rand and the
// stream a task sees is a function of its index alone — not of how the
// scheduler interleaved the pool.
func Seed(base int64, i int) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(i+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
