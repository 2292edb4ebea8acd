// Package benchutil holds the streaming-throughput benchmark driver
// shared by bench_test.go (BenchmarkStreamCheck) and cmd/pfdbench
// (the stream/Check/T13 entries of -exp bench), so both measure the
// same workload through the same code path.
package benchutil

import (
	"sync"

	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
	"pfd/internal/stream"
)

// StreamPFDs are hand-built dependencies over the T13 transcript
// schema (the course prefix determines the department; the semester
// code embeds the year), so the stream benchmarks are independent of
// discovery output.
func StreamPFDs() []*pfd.PFD {
	courseDept := pfd.MustNew("T13", []string{"course_id"}, "dept", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\LU{2})-\D{3}`))},
		RHS: pfd.Wildcard(),
	})
	semesterYear := pfd.MustNew("T13", []string{"semester"}, "year", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`\LU(\D{4})`))},
		RHS: pfd.Wildcard(),
	})
	return []*pfd.PFD{courseDept, semesterYear}
}

// TableTuples converts a table to the column->value maps the stream
// engine consumes.
func TableTuples(t *relation.Table) []map[string]string {
	out := make([]map[string]string, t.NumRows())
	for i := range out {
		tuple := make(map[string]string, len(t.Cols))
		for j, c := range t.Cols {
			tuple[c] = t.At(i, j)
		}
		out[i] = tuple
	}
	return out
}

// RunStreamPass pushes every tuple through a fresh engine from the
// given number of producer goroutines, each submitting one contiguous
// slice of the stream, and closes the engine.
func RunStreamPass(pfds []*pfd.PFD, tuples []map[string]string, producers int) {
	eng := stream.New(pfds, stream.Options{})
	var wg sync.WaitGroup
	chunk := (len(tuples) + producers - 1) / producers
	for lo := 0; lo < len(tuples); lo += chunk {
		wg.Add(1)
		go func(part []map[string]string) {
			defer wg.Done()
			for _, tuple := range part {
				if err := eng.Submit(tuple); err != nil {
					panic(err)
				}
			}
		}(tuples[lo:min(lo+chunk, len(tuples))])
	}
	wg.Wait()
	eng.Close()
}
