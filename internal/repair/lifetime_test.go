package repair

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pfd/internal/pfd"
)

// TestRulesCollectableAfterReturn pins that batch detection keeps no
// state past the call: once Detect or Holistic returns, nothing in the
// package still references the rules passed to it, so they can be
// garbage-collected. Two rules take the multi-rule planner path.
func TestRulesCollectableAfterReturn(t *testing.T) {
	for name, run := range map[string]func([]*pfd.PFD){
		"Detect":   func(pfds []*pfd.PFD) { Detect(zipTable(), pfds) },
		"Holistic": func(pfds []*pfd.PFD) { Holistic(zipTable(), pfds, HolisticOptions{}) },
	} {
		t.Run(name, func(t *testing.T) {
			var collected atomic.Int32
			func() {
				pfds := []*pfd.PFD{constPFD(), varPFD()}
				for _, p := range pfds {
					runtime.SetFinalizer(p, func(*pfd.PFD) { collected.Add(1) })
				}
				run(pfds)
			}()
			for i := 0; i < 100 && collected.Load() < 2; i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if got := collected.Load(); got != 2 {
				t.Fatalf("%d of 2 rules collected after %s returned; something outlives the call", got, name)
			}
		})
	}
}
