package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pfd/internal/relation"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	xs := ascending(100)
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 50, true},
		{90, 90, true}, // exactly ten samples beyond
		{91, 0, false}, // nine beyond
		{99, 0, false},
	} {
		got, err := percentile(xs, c.p)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, ok=%v", c.p, got, err, c.want, c.ok)
		}
	}
	if _, err := percentile(ascending(19), 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{10, 0, false}, {20, 50, true}, {100, 90, true}, {1000, 99, true}, {200000, 99.99, true}} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestFailedOpsSitAboveEveryPercentile(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	lat := latencies(ds, 20)
	if len(lat) != 120 || !math.IsInf(lat[119], 1) || !math.IsInf(lat[100], 1) || lat[99] != 100 {
		t.Fatalf("failed ops must sort last as +Inf: %v", lat[95:])
	}
	// 20 of 120 failed: p50 is still a latency, p90 lands on a failure.
	r := newRunResult()
	r.pct("p50", lat, 50)
	r.pct("p90", lat, 90)
	if v := r.metrics["p50"].Value; v != 60 {
		t.Errorf("p50 = %v, want 60", v)
	}
	if r.failed != 1 || len(r.failures) != 1 || !strings.Contains(r.failures[0], "p90") {
		t.Errorf("a percentile on a failed op must fail the run: failed=%d %v", r.failed, r.failures)
	}

	tl := tallyOf([]outcome{
		{kind: opIngest, tenant: 0, ok: true, accepted: 25, lat: time.Millisecond},
		{kind: opIngest, tenant: 0, ok: false, accepted: 7, lat: time.Millisecond},
		{kind: opRead, ok: false},
	})
	if tl.failed != 2 || tl.ingestFail != 1 || tl.readFail != 1 || tl.rowsOK != 25 || tl.accepted[0] != 32 {
		t.Errorf("tally = %+v", tl)
	}
}

// A request whose connection is reset is sent again, so the server's
// count stays checkable, but the op counts as failed.
func TestResetConnectionIsAFailedOp(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test server
		fmt.Fprint(w, `{"accepted": 3}`)
	}))
	defer srv.Close()
	g := newLoadGen(srv.URL, 1)
	defer g.close()
	out := g.do(op{kind: opIngest, method: http.MethodPost, path: "/", body: []byte("a\n1\n2\n3\n"), rows: 3})
	if out.ok || !out.retried || out.accepted != 3 {
		t.Errorf("reset then acked: ok=%v retried=%v accepted=%d; want failed, retried, 3 accepted", out.ok, out.retried, out.accepted)
	}
	if tl := tallyOf([]outcome{out}); tl.failed != 1 || tl.retried != 1 || tl.accepted[0] != 3 || len(tl.ingestLat) != 0 {
		t.Errorf("tally = %+v", tl)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 20},
		{ID: 6, Parent: 1, Name: "d", Start: 20, End: 25}, // inside a
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 of its 100.
	want := map[int64]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := covered(span{Start: 0, End: 10}, nil); got != 0 {
		t.Errorf("no children cover %d", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tpfdserved\nVmPeak:\t  812345 kB\nVmHWM:\t   78123 kB\nVmRSS:\t   70000 kB\n"
	kb, err := parseVmHWM([]byte(status))
	if err != nil || kb != 78123 {
		t.Errorf("parseVmHWM = %d, %v; want 78123", kb, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n", "VmHWM:\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ascending(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v", q1, q2, q3)
	}
}

func TestWindowRateSpreadsRowsOverEachRequest(t *testing.T) {
	t0 := time.Now()
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	outs := []outcome{
		// 100 rows over [0.5, 1.5): 50 land in each of the first two windows.
		{kind: opIngest, ok: true, accepted: 100, start: at(0.5), lat: time.Second},
		{kind: opIngest, ok: true, accepted: 40, start: at(0), lat: 500 * time.Millisecond},
		{kind: opIngest, ok: true, accepted: 80, start: at(1.5), lat: 500 * time.Millisecond},
		{kind: opIngest, ok: true, accepted: 30, start: at(2), lat: time.Second},
		{kind: opIngest, ok: false, accepted: 999, start: at(2), lat: time.Second},
	}
	// Windows: [0,1) 40+50, [1,2) 50+80, [2,3) 30.
	if got := windowRate(outs, t0, 3*time.Second); got != 90 {
		t.Errorf("windowRate = %v, want the median window, 90", got)
	}
}

// The seed reaches the data and nothing else: only the flag parsing,
// the steadiness report (which passes seeds to child runs) and the
// generator file name it.
func TestSeedOnlyReachesDatagen(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"main.go": true, "data.go": true, "steady.go": true}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "seed") && !allowed[name] {
				t.Errorf("%s: %s names a seed; only the data generator may", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}

	seen := map[int64]bool{}
	for s := int64(0); s < 1000; s++ {
		ref, stream := dataSeeds(s)
		if ref == stream || seen[ref] || seen[stream] {
			t.Fatalf("seed %d: generator seeds %d, %d collide", s, ref, stream)
		}
		seen[ref], seen[stream] = true, true
	}

	csvOf := func(tb *relation.Table) string {
		var b bytes.Buffer
		if err := tb.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	_, a1 := ingestData(ingestDurable, 1)
	_, a2 := ingestData(ingestDurable, 1)
	_, b := ingestData(ingestDurable, 2)
	if csvOf(a1) != csvOf(a2) {
		t.Error("the same seed drew different streams")
	}
	if csvOf(a1) == csvOf(b) {
		t.Error("different seeds drew the same stream")
	}

	// Two seeds' runs send the same request mix; only the bodies differ.
	mix := func(stream *relation.Table) []op {
		bodies, err := encodeBodies(stream, ingestDurable.bodyRows, ingestDurable.format)
		if err != nil {
			t.Fatal(err)
		}
		w := &ingestWork{spec: ingestDurable, stream: stream, bodies: bodies, rulesJSON: []byte("{}")}
		var ops []op
		for i := 0; i < 2000; i++ {
			o := w.opAt(i)
			o.body = nil
			ops = append(ops, o)
		}
		return ops
	}
	if !reflect.DeepEqual(mix(a1), mix(b)) {
		t.Error("the request mix depends on the seed")
	}
}
