package stream

import (
	"testing"

	"pfd/internal/pfd"
)

// TestEngineStateLifecycle walks running → closed. The handler runs
// inside Submit, so a handler that blocks holds Submit (and the engine
// lock) until released: Close must wait for the Submit to finish, and
// Submit after Close fails with ErrClosed.
func TestEngineStateLifecycle(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	eng := New(testPFDs(), Options{
		OnViolation: func(v pfd.StreamViolation) {
			entered <- struct{}{}
			<-gate
		},
	})

	// A constant-LHS row with a wrong constant RHS violates
	// immediately and statelessly, so exactly one callback fires.
	submitted := make(chan error, 1)
	go func() { submitted <- eng.Submit(map[string]string{"zip": "90001", "city": "Chicago"}) }()
	<-entered // Submit is now blocked inside the callback

	done := make(chan Report, 1)
	go func() { done <- eng.Close() }()

	close(gate)
	if err := <-submitted; err != nil {
		t.Fatalf("Submit = %v", err)
	}
	rep := <-done
	if rep.Rows != 1 || len(rep.Violations) != 1 {
		t.Fatalf("final report has %d rows and %d violations, want 1 and 1", rep.Rows, len(rep.Violations))
	}
	if err := eng.Submit(map[string]string{"zip": "90001", "city": "Chicago"}); err != ErrClosed {
		t.Fatalf("Submit after close = %v, want ErrClosed", err)
	}
}

// TestBacklogGauge: every tuple is folded before Submit returns, so
// nothing is ever queued.
func TestBacklogGauge(t *testing.T) {
	eng := New(testPFDs(), Options{})
	for i := 0; i < 10; i++ {
		if err := eng.Submit(map[string]string{"zip": "90001", "city": "Los Angeles"}); err != nil {
			t.Fatal(err)
		}
	}
	if batches, buffered := eng.Backlog(); batches != 0 || buffered != 0 {
		t.Errorf("Backlog after 10 submits = (%d, %d), want (0, 0)", batches, buffered)
	}
	eng.Close()
	if batches, buffered := eng.Backlog(); batches != 0 || buffered != 0 {
		t.Errorf("Backlog after Close = (%d, %d), want (0, 0)", batches, buffered)
	}
}
