package ooc

import (
	"context"
	"testing"
	"time"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/source"
)

// BenchmarkChunkedT13 times out-of-core discovery on T13 at 0.1 of
// Table 7's rows in 8 chunks, with no confirm pass, so the work is what
// in-memory discovery does. VerifyFull reports ratio_vs_inmemory (the
// ≤1.5× bar) against as many in-memory discovery.Discover calls, timed
// with the benchmark timer stopped; VerifySample, where a 25% sample
// screens the lattice before the exact pass, reports rows_per_sec.
func BenchmarkChunkedT13(b *testing.B) {
	spec, _ := datagen.SpecByID("T13")
	const rows = 10574
	t, _ := spec.Build(rows, workloadSeed, workloadDirt)
	params := discovery.DefaultParams()
	run := func(b *testing.B, opt Options) {
		for i := 0; i < b.N; i++ {
			if _, err := Discover(context.Background(), source.FromTable(t), opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("VerifyFull", func(b *testing.B) {
		b.ReportAllocs()
		run(b, Options{Params: params, ChunkRows: (rows + 7) / 8, SampleRows: rows / 10, SkipConfirm: true})
		b.StopTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			discovery.Discover(t, params)
		}
		b.ReportMetric(float64(b.Elapsed())/float64(time.Since(start)), "ratio_vs_inmemory")
	})
	b.Run("VerifySample", func(b *testing.B) {
		b.ReportAllocs()
		run(b, Options{Params: params, ChunkRows: (rows + 7) / 8, SampleRows: rows / 4, Verify: VerifySample, SkipConfirm: true})
		b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows_per_sec")
	})
}
