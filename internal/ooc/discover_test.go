package ooc

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/relation"
	"pfd/internal/source"
)

// workloadRows mirrors the differential suite's scaling: a tenth of
// the paper's row counts with a 300-row floor.
func workloadRows(paperRows int) int {
	rows := paperRows / 10
	if rows < 300 {
		rows = 300
	}
	return rows
}

const (
	workloadSeed = 1
	workloadDirt = 0.01
)

// renderDeps serializes dependencies in the differential suite's line
// format — byte-identity of this rendering is the acceptance bar.
func renderDeps(deps []*discovery.Dependency) string {
	var b strings.Builder
	for _, d := range deps {
		fmt.Fprintf(&b, "dep %s variable=%v support=%d coverage=%.6f %s\n",
			d.Embedded(), d.Variable, d.Support, d.Coverage, d.PFD)
	}
	return b.String()
}

// TestOOCDifferential pins DiscoverOutOfCore byte-identical to
// in-memory discovery on every T1–T15 workload, with 8+ chunks and a
// 10% sample target under full verification, which collects no sample.
func TestOOCDifferential(t *testing.T) {
	ctx := context.Background()
	params := discovery.DefaultParams()
	for _, spec := range datagen.Specs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			rows := workloadRows(spec.PaperRows)
			tbl, _ := spec.Build(rows, workloadSeed, workloadDirt)
			want := renderDeps(discovery.Discover(tbl, params).Dependencies)

			res, err := Discover(ctx, source.FromTable(tbl), Options{
				Params:      params,
				ChunkRows:   (rows + 7) / 8,
				SampleRows:  rows / 10,
				SkipConfirm: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderDeps(res.Dependencies); got != want {
				t.Fatalf("out-of-core result diverges from in-memory:\nwant:\n%s\ngot:\n%s", want, got)
			}
			if res.Stats.Chunks < 8 {
				t.Fatalf("expected >= 8 chunks, got %d", res.Stats.Chunks)
			}
			if res.Stats.Rows != tbl.NumRows() {
				t.Fatalf("Stats.Rows = %d, want %d", res.Stats.Rows, tbl.NumRows())
			}
			if res.Stats.SampleRows != 0 {
				t.Fatalf("full verification sampled %d rows; only VerifySample mines a sample", res.Stats.SampleRows)
			}
		})
	}
}

// TestOOCSpillAndSnapshotChunks pins the spill path and the chunked
// .pfdt source path to the same bytes: the T13 workload is discovered
// in memory, through a tiny memory limit (forcing chunk spills), and
// from pre-written chunk snapshot files.
func TestOOCSpillAndSnapshotChunks(t *testing.T) {
	ctx := context.Background()
	params := discovery.DefaultParams()
	spec, _ := datagen.SpecByID("T13")
	rows := workloadRows(spec.PaperRows)
	tbl, _ := spec.Build(rows, workloadSeed, workloadDirt)
	want := renderDeps(discovery.Discover(tbl, params).Dependencies)

	// Baseline: no limit, to learn the workload's resident footprint.
	base, err := Discover(ctx, source.FromTable(tbl), Options{
		Params: params, ChunkRows: (rows + 15) / 16, SkipConfirm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDeps(base.Dependencies); got != want {
		t.Fatalf("baseline diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Spill: a limit at a quarter of the footprint must force chunks to
	// disk without changing a byte.
	limit := base.Stats.PeakResident / 4
	spilled, err := Discover(ctx, source.FromTable(tbl), Options{
		Params: params, ChunkRows: (rows + 15) / 16,
		MemLimit: limit, SpillDir: t.TempDir(), SkipConfirm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Stats.SpilledChunks == 0 {
		t.Fatal("memory limit did not force any spills")
	}
	if got := renderDeps(spilled.Dependencies); got != want {
		t.Fatalf("spilled run diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Chunked snapshot files: the datagen streaming format.
	dir := t.TempDir()
	var paths []string
	chunkRows := (rows + 7) / 8
	buf := make([]string, 0, len(tbl.Cols))
	for start := 0; start < rows; start += chunkRows {
		end := start + chunkRows
		if end > rows {
			end = rows
		}
		c := relation.New(tbl.Name, tbl.Cols...)
		for r := start; r < end; r++ {
			buf = tbl.AppendRowTo(buf[:0], r)
			c.Append(buf...)
		}
		p := filepath.Join(dir, fmt.Sprintf("t13.c%04d.pfdt", len(paths)))
		if err := c.WriteSnapshotFile(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	fromFiles, err := Discover(ctx, source.SnapshotChunks(tbl.Name, paths...), Options{
		Params: params, SkipConfirm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDeps(fromFiles.Dependencies); got != want {
		t.Fatalf("snapshot-chunk run diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if fromFiles.Stats.Chunks != len(paths) {
		t.Fatalf("chunk files: Stats.Chunks = %d, want %d", fromFiles.Stats.Chunks, len(paths))
	}
}

// TestOOCMultiLHS pins the lattice-prune replication at MaxLHS=2: the
// variable-row prunes from level 1 must cut level 2 identically.
func TestOOCMultiLHS(t *testing.T) {
	ctx := context.Background()
	params := discovery.DefaultParams()
	params.MaxLHS = 2
	spec, _ := datagen.SpecByID("T1")
	rows := workloadRows(spec.PaperRows)
	tbl, _ := spec.Build(rows, workloadSeed, workloadDirt)
	want := renderDeps(discovery.Discover(tbl, params).Dependencies)
	res, err := Discover(ctx, source.FromTable(tbl), Options{
		Params: params, ChunkRows: (rows + 7) / 8, SkipConfirm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDeps(res.Dependencies); got != want {
		t.Fatalf("MaxLHS=2 diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestOOCSampleVerify checks the approximate mode's contract: every
// reported dependency is exactly the dependency full verification
// reports for that embedded FD (a subset, never a distortion).
func TestOOCSampleVerify(t *testing.T) {
	ctx := context.Background()
	params := discovery.DefaultParams()
	spec, _ := datagen.SpecByID("T13")
	rows := workloadRows(spec.PaperRows)
	tbl, _ := spec.Build(rows, workloadSeed, workloadDirt)
	exact := map[string]string{}
	for _, d := range discovery.Discover(tbl, params).Dependencies {
		exact[d.Embedded()] = renderDeps([]*discovery.Dependency{d})
	}
	res, err := Discover(ctx, source.FromTable(tbl), Options{
		Params: params, ChunkRows: (rows + 7) / 8, SampleRows: rows / 4,
		Verify: VerifySample, SkipConfirm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Dependencies {
		want, ok := exact[d.Embedded()]
		if !ok {
			t.Fatalf("sample-verified run reported %s, which full verification does not find", d.Embedded())
		}
		if got := renderDeps([]*discovery.Dependency{d}); got != want {
			t.Fatalf("sample-verified dependency distorted:\nwant: %sgot:  %s", want, got)
		}
	}
	if res.Stats.ScreenedOut == 0 && len(exact) > 0 && res.Stats.SampleRows < rows {
		t.Logf("note: sample screen dropped no candidates (sample found all)")
	}
}

// TestOOCConfirmPass checks the Health annotation: one entry per rule,
// exact support matching the dependency's own count for variable
// rules, and confirm rows covering the whole input.
func TestOOCConfirmPass(t *testing.T) {
	ctx := context.Background()
	spec, _ := datagen.SpecByID("T13")
	rows := workloadRows(spec.PaperRows)
	tbl, _ := spec.Build(rows, workloadSeed, workloadDirt)
	res, err := Discover(ctx, source.FromTable(tbl), Options{
		ChunkRows: (rows + 7) / 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dependencies) == 0 {
		t.Skip("no dependencies on this workload")
	}
	if len(res.Health) != len(res.Dependencies) {
		t.Fatalf("Health has %d entries for %d dependencies", len(res.Health), len(res.Dependencies))
	}
	if res.Stats.ConfirmRows != rows {
		t.Fatalf("ConfirmRows = %d, want %d", res.Stats.ConfirmRows, rows)
	}
	for i, h := range res.Health {
		if h.Support < 0 || h.Violations < 0 || !h.Active {
			t.Fatalf("health[%d] = %+v", i, h)
		}
		if i > 0 && res.Health[i-1].Confidence < h.Confidence {
			t.Fatalf("health not ranked by confidence: %v before %v", res.Health[i-1], h)
		}
	}
}

// TestOOCEmptyAndCancel covers the degenerate paths.
func TestOOCEmptyAndCancel(t *testing.T) {
	empty := relation.New("empty", "a", "b")
	res, err := Discover(context.Background(), source.FromTable(empty), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 || len(res.Dependencies) != 0 {
		t.Fatalf("empty input: %+v", res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, _ := datagen.SpecByID("T1")
	tbl, _ := spec.Build(300, 1, 0)
	if _, err := Discover(ctx, source.FromTable(tbl), Options{}); err == nil {
		t.Fatal("canceled context not surfaced")
	}
}

// TestProjectParallelDeterministic pins the chunk-parallel projection
// build to the sequential one: the whole discovery result (which flows
// through project for every verified candidate) must be byte-identical
// at one worker and at many, including through the spill path.
func TestProjectParallelDeterministic(t *testing.T) {
	ctx := context.Background()
	params := discovery.DefaultParams()
	spec, ok := datagen.SpecByID("T13")
	if !ok {
		t.Fatal("T13 spec missing")
	}
	rows := workloadRows(spec.PaperRows)
	tbl, _ := spec.Build(rows, workloadSeed, workloadDirt)
	opts := Options{
		Params:      params,
		ChunkRows:   (rows + 7) / 8,
		SampleRows:  rows / 10,
		MemLimit:    1, // spill every chunk: parallel loads re-read files
		SpillDir:    t.TempDir(),
		SkipConfirm: true,
	}
	defer func(w int) { projectWorkers = w }(projectWorkers)
	projectWorkers = 1
	seqRes, err := Discover(ctx, source.FromTable(tbl), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SpillDir = t.TempDir()
	projectWorkers = 8
	parRes, err := Discover(ctx, source.FromTable(tbl), opts)
	if err != nil {
		t.Fatal(err)
	}
	seq, par := renderDeps(seqRes.Dependencies), renderDeps(parRes.Dependencies)
	if seq != par {
		t.Fatalf("parallel projection diverges from sequential:\nseq:\n%s\npar:\n%s", seq, par)
	}
	if seq == "" {
		t.Fatal("test premise broken: expected dependencies on T13")
	}
}
