package relation_test

import (
	"bytes"
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/relation"
)

// TestSnapshotRoundTripEvaluationTables pins snapshot round-trip
// equality on generated instances of the paper's evaluation tables —
// the small/medium/large spread the acceptance criteria name.
func TestSnapshotRoundTripEvaluationTables(t *testing.T) {
	for _, id := range []string{"T1", "T5", "T13"} {
		spec, ok := datagen.SpecByID(id)
		if !ok {
			t.Fatalf("no spec %s", id)
		}
		rows := spec.PaperRows / 20
		if rows < 200 {
			rows = 200
		}
		want, _ := spec.Build(rows, 7, 0.02)

		var buf bytes.Buffer
		if err := want.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%s: WriteSnapshot: %v", id, err)
		}
		got, err := relation.LoadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: LoadSnapshot: %v", id, err)
		}
		if got.Name != want.Name || got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
			t.Fatalf("%s: shape mismatch: %q %dx%d vs %q %dx%d", id,
				got.Name, got.NumRows(), got.NumCols(), want.Name, want.NumRows(), want.NumCols())
		}
		for ci, col := range want.Cols {
			if got.Cols[ci] != col {
				t.Fatalf("%s: column %d = %q, want %q", id, ci, got.Cols[ci], col)
			}
		}
		for r := 0; r < want.NumRows(); r++ {
			for ci := range want.Cols {
				if g, w := got.At(r, ci), want.At(r, ci); g != w {
					t.Fatalf("%s: At(%d,%d) = %q, want %q", id, r, ci, g, w)
				}
			}
		}
	}
}

// BenchmarkDecodeT13 decodes T13 at 0.1 of Table 7's rows from memory
// in both formats: ReadCSV parses and re-interns, LoadSnapshot reads
// the binary dictionaries and codes. LoadSnapshot reports
// speedup_vs_csv against the ReadCSV run just before it, the warm-up
// win (≥5×) the snapshot format exists for.
func BenchmarkDecodeT13(b *testing.B) {
	spec, _ := datagen.SpecByID("T13")
	t, _ := spec.Build(10574, 1, 0.01)
	var snap, csv bytes.Buffer
	if err := t.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	if err := t.WriteCSV(&csv); err != nil {
		b.Fatal(err)
	}
	var csvNs float64
	b.Run("ReadCSV", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relation.ReadCSV("T13", bytes.NewReader(csv.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		csvNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("LoadSnapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relation.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		if csvNs > 0 {
			b.ReportMetric(csvNs/(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "speedup_vs_csv")
		}
	})
}
