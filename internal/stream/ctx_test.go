package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pfd/internal/relation"
	"pfd/internal/testleak"
)

func TestSubmitAfterCancelReturnsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := NewContext(ctx, testPFDs(), Options{})
	defer eng.Close()

	if err := eng.Submit(map[string]string{"zip": "90001", "city": "Los Angeles"}); err != nil {
		t.Fatalf("pre-cancel Submit: %v", err)
	}
	cancel()
	err := eng.Submit(map[string]string{"zip": "90002", "city": "Los Angeles"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Submit = %v, want context.Canceled", err)
	}
	tbl := relation.New("Zip", "zip", "city")
	tbl.Append("90003", "Los Angeles")
	if err := eng.SubmitTable(tbl); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel SubmitTable = %v, want context.Canceled", err)
	}
	if rows := eng.Rows(); rows != 1 {
		t.Fatalf("Rows = %d after cancel, want the 1 pre-cancel tuple", rows)
	}
}

// TestConcurrentProducersCancelMidRun races several producers against
// a cancellation and requires every producer to exit promptly with the
// context error, and Close/Snapshot to stay deadlock-free. Run under
// -race in CI.
func TestConcurrentProducersCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := NewContext(ctx, testPFDs(), Options{})

	const producers = 8
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := eng.Submit(map[string]string{
					"zip": fmt.Sprintf("%03d%02d", (p*31+i)%1000, i%100), "city": "Los Angeles",
				})
				if err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}

	time.Sleep(5 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producers still running 10s after cancellation")
	}
	for p, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("producer %d exited with %v, want context.Canceled", p, err)
		}
	}
	// The final report is partial but must still be obtainable, and
	// the engine must leave no goroutine behind on the canceled path.
	rep := eng.Close()
	if rep.Rows < 0 {
		t.Errorf("rows = %d", rep.Rows)
	}
	testleak.Wait(t, "pfd/internal/stream.")
}
