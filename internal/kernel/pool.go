package kernel

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(s, i) for every item i in [0, n) and is the one
// worker pool of a batch call: discovery's candidates, the planner's
// LHS groups and the out-of-core projection's chunks all run through
// it, and nothing they call starts a pool of its own.
//
// Up to workers goroutines claim items from a shared counter, each
// with its own scratch s from scratch() (the zero S when scratch is
// nil). With one worker or one item the loop runs inline on the
// calling goroutine. Every worker checks ctx before each claim, so
// cancellation stops the pool after at most one in-flight item per
// worker. The first error, from fn or from ctx, stops further claims
// and is returned. Items are handed out in index order but finish in
// any order, so fn must write only to outputs owned by its index; the
// result is then the same at every width.
func ForEach[S any](ctx context.Context, workers, n int, scratch func() S, fn func(s S, i int) error) error {
	var (
		next    atomic.Int64
		stopped atomic.Bool
		once    sync.Once
		first   error
	)
	fail := func(err error) {
		once.Do(func() { first = err })
		stopped.Store(true)
	}
	work := func() {
		var s S
		if scratch != nil {
			s = scratch()
		}
		for !stopped.Load() {
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(s, i); err != nil {
				fail(err)
				return
			}
		}
	}
	workers = min(workers, n)
	if workers <= 1 {
		work()
		return first
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return first
}
