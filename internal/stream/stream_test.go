package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// testPFDs exercises every update kind: a constant row with a constant
// RHS (exact single-tuple checks), a variable row with a wildcard RHS
// (span consensus on the whole value), and a variable row with a
// pattern RHS (span consensus + span misses).
func testPFDs() []*pfd.PFD {
	constant := pfd.MustNew("Zip", []string{"zip"}, "city", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(900)\D{2}`))},
		RHS: pfd.Pat(pattern.Constant("Los Angeles")),
	})
	variable := pfd.MustNew("Zip", []string{"zip"}, "city", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: pfd.Wildcard(),
	})
	patternRHS := pfd.MustNew("Zip", []string{"zip"}, "city", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\D{2})\D{3}`))},
		RHS: pfd.Pat(pattern.MustParse(`(\LU\LL+)\A*`)),
	})
	return []*pfd.PFD{constant, variable, patternRHS}
}

// randomStream builds a tuple stream with colliding zip groups, mixed
// city labels, dirty values, and non-matching rows.
func randomStream(r *rand.Rand, n int) []map[string]string {
	prefixes := []string{"900", "606", "100", "ABC"}
	cities := []string{"Los Angeles", "Chicago", "New York", "90x", "Los Angeles", "Chicago"}
	out := make([]map[string]string, n)
	for i := range out {
		out[i] = map[string]string{
			"zip":  fmt.Sprintf("%s%02d", prefixes[r.Intn(len(prefixes))], r.Intn(4)),
			"city": cities[r.Intn(len(cities))],
		}
	}
	return out
}

// sequentialViolations replays the stream through the sequential
// Checker, the ground truth the engine must reproduce.
func sequentialViolations(t *testing.T, pfds []*pfd.PFD, stream []map[string]string) []pfd.StreamViolation {
	t.Helper()
	c := pfd.NewChecker(pfds)
	var all []pfd.StreamViolation
	for _, tuple := range stream {
		vs, err := c.CheckNext(tuple)
		if err != nil {
			t.Fatalf("CheckNext: %v", err)
		}
		all = append(all, vs...)
	}
	return all
}

func pfdIndex(pfds []*pfd.PFD) map[*pfd.PFD]int {
	idx := make(map[*pfd.PFD]int, len(pfds))
	for i, p := range pfds {
		idx[p] = i
	}
	return idx
}

// TestDifferentialAgainstChecker is the semantics-equivalence pin: the
// engine's violation set must equal the sequential Checker's on the
// same stream, for one producer and for four taking turns (reporting
// order excepted — both sides are sorted with the same comparator).
func TestDifferentialAgainstChecker(t *testing.T) {
	pfds := testPFDs()
	idx := pfdIndex(pfds)
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		stream := randomStream(r, 30+r.Intn(120))
		want := sequentialViolations(t, pfds, stream)
		SortViolations(want, idx)
		for _, producers := range []int{1, 4} {
			e := New(pfds, Options{})
			if err := inTurns(len(stream), producers, func(i int) error { return e.Submit(stream[i]) }); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			rep := e.Close()
			if rep.Rows != len(stream) {
				t.Fatalf("producers=%d: Rows = %d, want %d", producers, rep.Rows, len(stream))
			}
			if !reflect.DeepEqual(rep.Violations, want) {
				t.Fatalf("producers=%d trial=%d: violation sets differ\n got %d: %+v\nwant %d: %+v",
					producers, trial, len(rep.Violations), rep.Violations, len(want), want)
			}
		}
	}
}

// inTurns runs step(0), ..., step(n-1) in that order, step i on
// producer goroutine i%producers, passing a turn from one producer to
// the next: the engine sees several submitting goroutines and one
// deterministic submission order, which the Checker can replay. It
// returns the first error; the steps after it are skipped.
func inTurns(n, producers int, step func(i int) error) error {
	turn := make([]chan struct{}, producers)
	for p := range turn {
		turn[p] = make(chan struct{}, 1)
	}
	turn[0] <- struct{}{}
	var err error // touched only by the producer holding the turn
	var wg sync.WaitGroup
	for p := range turn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < n; i += producers {
				<-turn[p]
				if err == nil {
					err = step(i)
				}
				turn[(i+1)%producers] <- struct{}{}
			}
		}()
	}
	wg.Wait()
	return err
}

// TestSnapshotBarrierConsistency verifies a mid-stream snapshot sees
// exactly the prefix submitted before it, and that later submissions
// still land in the final report.
func TestSnapshotBarrierConsistency(t *testing.T) {
	pfds := testPFDs()
	idx := pfdIndex(pfds)
	r := rand.New(rand.NewSource(7))
	stream := randomStream(r, 80)
	cut := 37

	wantPrefix := sequentialViolations(t, pfds, stream[:cut])
	SortViolations(wantPrefix, idx)
	wantAll := sequentialViolations(t, pfds, stream)
	SortViolations(wantAll, idx)

	e := New(pfds, Options{})
	for _, tuple := range stream[:cut] {
		if err := e.Submit(tuple); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	snap := e.Snapshot()
	if snap.Rows != cut {
		t.Fatalf("snapshot Rows = %d, want %d", snap.Rows, cut)
	}
	if !reflect.DeepEqual(snap.Violations, wantPrefix) {
		t.Fatalf("snapshot violations differ:\n got %+v\nwant %+v", snap.Violations, wantPrefix)
	}
	for _, tuple := range stream[cut:] {
		if err := e.Submit(tuple); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	rep := e.Close()
	if !reflect.DeepEqual(rep.Violations, wantAll) {
		t.Fatalf("final violations differ:\n got %+v\nwant %+v", rep.Violations, wantAll)
	}
	// Snapshot after Close returns the final report.
	if again := e.Snapshot(); !reflect.DeepEqual(again, rep) {
		t.Fatalf("post-close Snapshot != final report")
	}
}

// TestConcurrentProducers hammers Submit from many goroutines with the
// race detector in mind: per-tuple attribution depends on arrival
// order, but the *number* of stateless constant-row violations is
// order-independent, so it is asserted exactly.
func TestConcurrentProducers(t *testing.T) {
	pfds := testPFDs()
	const producers = 8
	const perProducer = 200
	e := New(pfds, Options{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProducer; i++ {
				tuple := map[string]string{
					"zip":  fmt.Sprintf("900%02d", r.Intn(10)),
					"city": []string{"Los Angeles", "Pasadena"}[i%2],
				}
				if err := e.Submit(tuple); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	rep := e.Close()
	if rep.Rows != producers*perProducer {
		t.Fatalf("Rows = %d, want %d", rep.Rows, producers*perProducer)
	}
	// Every "Pasadena" tuple breaches the constant row exactly once,
	// regardless of interleaving.
	constHits := 0
	for _, v := range rep.Violations {
		if v.PFD == pfds[0] && v.NewTuple && v.Expected == "Los Angeles" {
			constHits++
		}
	}
	if want := producers * perProducer / 2; constHits != want {
		t.Fatalf("constant-row violations = %d, want %d", constHits, want)
	}
}

// TestOnViolationCallback checks the live delivery path agrees with the
// retained log.
func TestOnViolationCallback(t *testing.T) {
	pfds := testPFDs()
	var mu sync.Mutex
	live := 0
	e := New(pfds, Options{OnViolation: func(pfd.StreamViolation) {
		mu.Lock()
		live++
		mu.Unlock()
	}})
	r := rand.New(rand.NewSource(3))
	for _, tuple := range randomStream(r, 100) {
		if err := e.Submit(tuple); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	rep := e.Close()
	mu.Lock()
	defer mu.Unlock()
	if live != len(rep.Violations) {
		t.Fatalf("callback saw %d violations, report has %d", live, len(rep.Violations))
	}
	if live == 0 {
		t.Fatal("stream produced no violations; test is vacuous")
	}
}

// TestOnViolationInSubmit pins the handler contract: a violation is
// delivered before the Submit that raised it returns, and calls from
// concurrent producers never overlap, so the handler needs no lock of
// its own.
func TestOnViolationInSubmit(t *testing.T) {
	pfds := testPFDs()
	var inFlight, overlaps, calls atomic.Int64
	e := New(pfds, Options{OnViolation: func(pfd.StreamViolation) {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		calls.Add(1)
		inFlight.Add(-1)
	}})
	// Breaches the constant row "(900)\D{2} -> Los Angeles".
	if err := e.Submit(map[string]string{"zip": "90001", "city": "Pasadena"}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler called %d times when Submit returned, want 1", n)
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tuple := range randomStream(rand.New(rand.NewSource(int64(p))), 200) {
				if err := e.Submit(tuple); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rep := e.Close()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d handler calls overlapped another", n)
	}
	if int(calls.Load()) != len(rep.Violations) {
		t.Fatalf("handler saw %d violations, report has %d", calls.Load(), len(rep.Violations))
	}
}

func TestSubmitErrors(t *testing.T) {
	pfds := testPFDs()
	e := New(pfds, Options{})
	var mce *pfd.MissingColumnError
	if err := e.Submit(map[string]string{"zip": "90001"}); !errors.As(err, &mce) {
		t.Fatalf("missing column: got %v, want *pfd.MissingColumnError", err)
	}
	if mce.Column != "city" {
		t.Errorf("Column = %q", mce.Column)
	}
	if rep := e.Close(); rep.Rows != 0 {
		t.Fatalf("rejected tuple counted: Rows = %d", rep.Rows)
	}
	if err := e.Submit(map[string]string{"zip": "90001", "city": "Los Angeles"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}

// TestDiscardViolations checks the retention opt-out: violations reach
// the callback but Snapshot/Close reports stay empty (Rows still
// exact).
func TestDiscardViolations(t *testing.T) {
	pfds := testPFDs()
	var mu sync.Mutex
	live := 0
	e := New(pfds, Options{
		DiscardViolations: true,
		OnViolation: func(pfd.StreamViolation) {
			mu.Lock()
			live++
			mu.Unlock()
		},
	})
	r := rand.New(rand.NewSource(5))
	stream := randomStream(r, 100)
	for _, tuple := range stream {
		if err := e.Submit(tuple); err != nil {
			t.Fatal(err)
		}
	}
	rep := e.Close()
	mu.Lock()
	defer mu.Unlock()
	if live == 0 {
		t.Fatal("no violations reached the callback; test is vacuous")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("discarded engine retained %d violations", len(rep.Violations))
	}
	if rep.Rows != len(stream) {
		t.Fatalf("Rows = %d, want %d", rep.Rows, len(stream))
	}
}

// TestSubmitTableMatchesSubmit pins the dictionary-encoded table fast
// path: folding a materialized table with SubmitTable must produce the
// exact violation report that per-tuple Submit calls produce on the
// same rows in the same order, from one producer or four.
func TestSubmitTableMatchesSubmit(t *testing.T) {
	pfds := testPFDs()
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		stream := randomStream(r, 40+r.Intn(120))
		tbl := relation.New("Zip", "zip", "city")
		for _, tuple := range stream {
			tbl.Append(tuple["zip"], tuple["city"])
		}
		for _, producers := range []int{1, 4} {
			perTuple := New(pfds, Options{})
			if err := inTurns(len(stream), producers, func(i int) error { return perTuple.Submit(stream[i]) }); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			want := perTuple.Close()

			table := New(pfds, Options{})
			if err := table.SubmitTable(tbl); err != nil {
				t.Fatalf("SubmitTable: %v", err)
			}
			got := table.Close()

			if got.Rows != want.Rows {
				t.Fatalf("producers=%d: Rows = %d, want %d", producers, got.Rows, want.Rows)
			}
			if !reflect.DeepEqual(got.Violations, want.Violations) {
				t.Fatalf("producers=%d trial=%d: reports differ\n got %d: %+v\nwant %d: %+v",
					producers, trial, len(got.Violations), got.Violations, len(want.Violations), want.Violations)
			}
		}
	}
}

// TestSubmitTableMissingColumn verifies the fast path rejects tables
// lacking a referenced column with the same typed error as Submit.
func TestSubmitTableMissingColumn(t *testing.T) {
	pfds := testPFDs()
	tbl := relation.New("Zip", "zip") // no city column
	tbl.Append("90012")
	e := New(pfds, Options{})
	defer e.Close()
	err := e.SubmitTable(tbl)
	var mce *pfd.MissingColumnError
	if !errors.As(err, &mce) || mce.Column != "city" {
		t.Fatalf("SubmitTable error = %v, want MissingColumnError{city}", err)
	}
	if rep := e.Close(); rep.Rows != 0 {
		t.Fatalf("rejected table advanced Rows to %d", rep.Rows)
	}
}
