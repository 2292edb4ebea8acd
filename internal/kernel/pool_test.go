package kernel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// onCallerStack reports whether the function named fn is on the
// current goroutine's stack: true inside ForEach's fn exactly when the
// pool ran inline on the test's goroutine.
func onCallerStack(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestForEachInline pins that one worker, or one item at any width,
// runs on the calling goroutine, with one scratch.
func TestForEachInline(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 5}, {0, 5}, {8, 1}} {
		scratches := 0
		var seen []int
		err := ForEach(context.Background(), c.workers, c.n,
			func() *int { scratches++; return new(int) },
			func(s *int, i int) error {
				if !onCallerStack(".TestForEachInline") {
					t.Errorf("workers=%d n=%d: item %d ran off the calling goroutine", c.workers, c.n, i)
				}
				seen = append(seen, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d n=%d: %v", c.workers, c.n, err)
		}
		if scratches != 1 || len(seen) != c.n {
			t.Fatalf("workers=%d n=%d: %d scratches, items %v", c.workers, c.n, scratches, seen)
		}
		for i, got := range seen {
			if got != i {
				t.Fatalf("workers=%d n=%d: items %v, want ascending", c.workers, c.n, seen)
			}
		}
	}
	if err := ForEach[struct{}](context.Background(), 8, 0, nil, func(struct{}, int) error {
		t.Fatal("fn called with no items")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachClaimsEachOnce runs 8 workers over many items: every index
// is claimed exactly once, each worker appends to its own scratch, and
// every output lands at its index. Run it under -race.
func TestForEachClaimsEachOnce(t *testing.T) {
	const n = 5000
	claims := make([]atomic.Int32, n)
	out := make([]int, n)
	var scratches atomic.Int32
	err := ForEach(context.Background(), 8, n,
		func() *[]int { scratches.Add(1); return new([]int) },
		func(s *[]int, i int) error {
			claims[i].Add(1)
			*s = append(*s, i) // private scratch: no race
			out[i] = i * i
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range claims {
		if c := claims[i].Load(); c != 1 {
			t.Fatalf("item %d claimed %d times", i, c)
		}
		if out[i] != i*i {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
	if s := scratches.Load(); s < 1 || s > 8 {
		t.Fatalf("%d scratches for 8 workers", s)
	}
}

// TestForEachStopsOnCancel pins that no item is claimed once the
// context is canceled: a canceled context runs nothing, and a cancel
// while all 8 workers hold an item lets none of them claim another.
func TestForEachStopsOnCancel(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		err := ForEach[struct{}](canceled, workers, 100, nil, func(struct{}, int) error {
			t.Fatalf("workers=%d: item claimed under a canceled context", workers)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}

	// Width 1: cancel inside item 3, nothing after it runs.
	ctx, cancel := context.WithCancel(context.Background())
	var ran []int
	err := ForEach[struct{}](ctx, 1, 100, nil, func(_ struct{}, i int) error {
		ran = append(ran, i)
		if i == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || len(ran) != 4 {
		t.Fatalf("width 1: err = %v after items %v, want context.Canceled after 0..3", err, ran)
	}

	// Width 8: every worker blocks in its first item until all 8 hold
	// one; the last to arrive cancels and releases them.
	const workers = 8
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	gate := make(chan struct{})
	var once sync.Once
	err = ForEach[struct{}](ctx, workers, 100, nil, func(struct{}, int) error {
		if started.Add(1) == workers {
			once.Do(func() { cancel(); close(gate) })
		}
		<-gate
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("width 8: err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != workers {
		t.Fatalf("width 8: %d items ran, want %d (one per worker, none after cancel)", n, workers)
	}
}

// TestForEachFirstError pins that the first error fn returns is the
// one returned and stops further claims, inline and pooled.
func TestForEachFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := ForEach[struct{}](context.Background(), 1, 100, nil, func(_ struct{}, i int) error {
		ran = append(ran, i)
		if i == 10 {
			return boom
		}
		return nil
	})
	if err != boom || len(ran) != 11 {
		t.Fatalf("width 1: err = %v after %d items, want %v after 11", err, len(ran), boom)
	}

	// Width 8: once item 10 has failed, every other item takes 1ms, so
	// a pool that kept claiming would run all of them.
	const n = 2000
	var count atomic.Int32
	var failed atomic.Bool
	err = ForEach[struct{}](context.Background(), 8, n, nil, func(_ struct{}, i int) error {
		count.Add(1)
		if i == 10 {
			failed.Store(true)
			return boom
		}
		if failed.Load() {
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != boom {
		t.Fatalf("width 8: err = %v, want %v", err, boom)
	}
	if c := count.Load(); c >= n {
		t.Fatalf("width 8: all %d items ran after the error", c)
	}

	// Only one error is returned even when every item fails.
	errs := make([]error, 64)
	for i := range errs {
		errs[i] = errors.New("item error")
	}
	err = ForEach[struct{}](context.Background(), 8, len(errs), nil, func(_ struct{}, i int) error {
		return errs[i]
	})
	found := false
	for _, e := range errs {
		found = found || err == e
	}
	if !found {
		t.Fatalf("err = %v, want one of the items' errors", err)
	}
}
