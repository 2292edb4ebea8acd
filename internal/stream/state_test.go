package stream

import (
	"testing"

	"pfd/internal/pfd"
)

// TestEngineStateLifecycle walks running → closed. The handler runs
// inside Submit, so a handler that blocks holds Submit (and the engine
// lock) until released: State must still answer without the lock, and
// Close must wait for the Submit to finish.
func TestEngineStateLifecycle(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	eng := New(testPFDs(), Options{
		OnViolation: func(v pfd.StreamViolation) {
			entered <- struct{}{}
			<-gate
		},
	})

	if got := eng.State(); got != EngineRunning {
		t.Fatalf("fresh engine state = %v, want running", got)
	}

	// A constant-LHS row with a wrong constant RHS violates
	// immediately and statelessly, so exactly one callback fires.
	submitted := make(chan error, 1)
	go func() { submitted <- eng.Submit(map[string]string{"zip": "90001", "city": "Chicago"}) }()
	<-entered // Submit is now blocked inside the callback

	if got := eng.State(); got != EngineRunning {
		t.Fatalf("state during a blocked Submit = %v, want running", got)
	}
	done := make(chan Report, 1)
	go func() { done <- eng.Close() }()

	close(gate)
	if err := <-submitted; err != nil {
		t.Fatalf("Submit = %v", err)
	}
	rep := <-done
	if got := eng.State(); got != EngineClosed {
		t.Fatalf("state after Close = %v, want closed", got)
	}
	if rep.Rows != 1 || len(rep.Violations) != 1 {
		t.Fatalf("final report has %d rows and %d violations, want 1 and 1", rep.Rows, len(rep.Violations))
	}
	if err := eng.Submit(map[string]string{"zip": "90001", "city": "Chicago"}); err != ErrClosed {
		t.Fatalf("Submit after close = %v, want ErrClosed", err)
	}
}

// TestEngineStateStrings pins the metric/log renderings.
func TestEngineStateStrings(t *testing.T) {
	for state, want := range map[EngineState]string{
		EngineRunning:  "running",
		EngineClosed:   "closed",
		EngineState(7): "unknown",
	} {
		if got := state.String(); got != want {
			t.Errorf("EngineState(%d).String() = %q, want %q", state, got, want)
		}
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
