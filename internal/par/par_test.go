package par

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// seqMap is the reference semantics: the plain sequential for loop,
// stopping at the first error.
func seqMap(n int, fn func(i int) (int, error)) ([]int, error) {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		v, err := fn(i)
		if err != nil {
			return out, fmt.Errorf("par: task %d: %w", i, err)
		}
		out[i] = v
	}
	if n == 0 {
		return nil, nil
	}
	return out, nil
}

// TestMapEqualsSequentialLoop is the testing/quick property the tentpole
// rests on: Map over any []int with any pure function equals the
// sequential for loop, at every parallelism, including the empty slice.
func TestMapEqualsSequentialLoop(t *testing.T) {
	property := func(xs []int, mul int8, par uint8) bool {
		fn := func(i int) (int, error) { return xs[i]*int(mul) + i, nil }
		want, _ := seqMap(len(xs), fn)
		got, err := Map(context.Background(), len(xs), int(par%16), func(_ context.Context, i int) (int, error) {
			return fn(i)
		})
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestMapFirstErrorWins checks that the returned error is the one from
// the lowest-indexed failing task — the deterministic analogue of the
// sequential loop's "first error" — at every parallelism.
func TestMapFirstErrorWins(t *testing.T) {
	sentinel := errors.New("boom")
	property := func(failsRaw []uint8, par uint8) bool {
		n := 40
		fails := map[int]bool{}
		for _, f := range failsRaw {
			fails[int(f)%n] = true
		}
		fn := func(i int) (int, error) {
			if fails[i] {
				return 0, fmt.Errorf("%w at %d", sentinel, i)
			}
			return i, nil
		}
		_, wantErr := seqMap(n, fn)
		_, gotErr := Map(context.Background(), n, int(par%16), func(_ context.Context, i int) (int, error) {
			return fn(i)
		})
		if (wantErr == nil) != (gotErr == nil) {
			return false
		}
		if wantErr == nil {
			return true
		}
		// Same failing index ⇒ same wrapped message.
		return errors.Is(gotErr, sentinel) && gotErr.Error() == wantErr.Error()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestMapErrorCancelsRest checks that a failing task cancels the shared
// context so cooperative tasks stop early.
func TestMapErrorCancelsRest(t *testing.T) {
	var sawCancel atomic.Bool
	started := make(chan struct{})
	_, err := Map(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			<-started // wait until the sibling is live, then fail
			return 0, errors.New("fail fast")
		}
		close(started)
		<-ctx.Done() // the failing sibling must release us
		sawCancel.Store(true)
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !sawCancel.Load() {
		t.Error("context was never cancelled for sibling tasks")
	}
}

// TestMapPanicRecovered checks that a panicking task is reported as an
// error, not a process crash, at sequential and parallel widths.
func TestMapPanicRecovered(t *testing.T) {
	for _, par := range []int{1, 8} {
		_, err := Map(context.Background(), 10, par, func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("par=%d: want PanicError, got %v", par, err)
		}
		if !strings.Contains(pe.Error(), "kaboom") {
			t.Errorf("par=%d: panic value lost: %v", par, pe)
		}
	}
}

// TestMapEmpty checks the empty slice degenerate case.
func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0, 8, func(_ context.Context, i int) (int, error) {
		t.Error("task ran for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestMapExternalCancel checks that a pre-cancelled caller context
// surfaces as an error instead of silently returning zero values.
func TestMapExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 100, 4, func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestForEach covers the result-free wrapper.
func TestForEach(t *testing.T) {
	var count atomic.Int64
	if err := ForEach(context.Background(), 32, 8, func(_ context.Context, i int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 32 {
		t.Errorf("ran %d of 32 tasks", count.Load())
	}
}

// TestN covers the parallelism-knob resolution.
func TestN(t *testing.T) {
	if N(0) < 1 || N(-3) < 1 {
		t.Error("auto parallelism must be at least 1")
	}
	if N(7) != 7 {
		t.Error("explicit parallelism must pass through")
	}
}

// TestSeedIndexDerivation checks that per-task seeds differ across
// indices and are pure functions of (base, index).
func TestSeedIndexDerivation(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := Seed(42, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("seed collision between tasks %d and %d", i, j)
		}
		seen[s] = i
		if s != Seed(42, i) {
			t.Fatal("seed is not deterministic")
		}
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Error("base seed must matter")
	}
}

// TestMapHammer drives many concurrent pools at once; it exists to give
// `go test -race` scheduling variety to chew on.
func TestMapHammer(t *testing.T) {
	if err := ForEach(context.Background(), 8, 8, func(ctx context.Context, _ int) error {
		for round := 0; round < 20; round++ {
			sum := 0
			vals, err := Map(ctx, 50, 4, func(_ context.Context, i int) (int, error) {
				return i * i, nil
			})
			if err != nil {
				return err
			}
			for _, v := range vals {
				sum += v
			}
			if sum != 40425 {
				return fmt.Errorf("bad sum %d", sum)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
