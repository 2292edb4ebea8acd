package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"pfd"
	"pfd/internal/relation"
)

// ingestSpec fixes everything about an ingest workload except its data.
type ingestSpec struct {
	name        string
	ref, stream tableSpec
	tenants     int
	bodyRows    int
	format      string // "csv" or "jsonl"
	reportReads bool   // reads alternate report (a barrier) and violations; else violations only
	reloadEvery int    // one op in reloadEvery re-PUTs the ruleset (0: never)
	durable     bool   // -data-dir (journal written before each ack, not fsynced), with a kill -9 pre-phase
	warmRef     bool   // tenant 0 boots with -rules and -ref
}

// The two ingest workloads. The reasons for each choice are in
// README.md; in short, ingest-rules is CPU-bound in per-tuple rule
// evaluation, ingest-durable in per-request costs.
var (
	ingestRules = &ingestSpec{
		name:     "ingest-rules",
		ref:      tableSpec{id: "T1", rows: 6704},
		stream:   tableSpec{id: "T1", rows: 20000, dirt: 0.02},
		tenants:  4,
		bodyRows: 500,
		format:   "csv",
		warmRef:  true,
	}
	ingestDurable = &ingestSpec{
		name:        "ingest-durable",
		ref:         tableSpec{id: "T13", rows: 5287},
		stream:      tableSpec{id: "T13", rows: 10000, dirt: 0.02},
		tenants:     2,
		bodyRows:    25,
		format:      "jsonl",
		reportReads: true,
		reloadEvery: 500,
		durable:     true,
	}
)

const (
	// conns is the generator's connection count: nproc on the 2-vCPU
	// machine the bounds were set on.
	conns = 2
	// ring is the daemon's -ring: a report read returns at most this
	// many findings, the same as a violations?limit=100 read.
	ring = 100
	// verifyRing holds every finding of one pass over a stream, so the
	// verification tenant's violation set is complete.
	verifyRing = 1 << 16
	// readEvery: one op in readEvery is a read.
	readEvery = 10
	// setups is how many boots (or restarts) setup_s is the median of.
	setups = 7
	// prephaseBodies is how many bodies each tenant but the first
	// ingests before the durable workload's crash.
	prephaseBodies = 100
	// warmup is untimed load before the timed phase.
	warmup = time.Second
)

// ingestWork is an ingest workload's prepared inputs and the library
// reference its output is checked against.
type ingestWork struct {
	spec      *ingestSpec
	dir       string
	rs        *pfd.Ruleset
	rulesJSON []byte
	rulesPath string
	refPath   string
	ref       *relation.Table
	stream    *relation.Table
	bodies    [][]byte
	expect    []pfd.ReportFinding // library live findings for one in-order pass
}

// prepareIngest mines the ruleset from the clean reference, encodes
// the stream into request bodies, and computes the library reference
// the daemon's output is checked against.
func prepareIngest(ctx context.Context, spec *ingestSpec, ref, stream *relation.Table, dir string) (*ingestWork, error) {
	w := &ingestWork{spec: spec, dir: dir, ref: ref, stream: stream}
	d, err := pfd.Discover(ctx, pfd.FromTable(w.ref.Clone()))
	if err != nil {
		return nil, fmt.Errorf("mining %s: %w", spec.ref.id, err)
	}
	w.rs = d.Ruleset()
	if w.rs.Len() == 0 {
		return nil, fmt.Errorf("mining %s found no rules", spec.ref.id)
	}
	if w.rulesJSON, err = json.Marshal(w.rs); err != nil {
		return nil, err
	}
	w.rulesPath = filepath.Join(dir, "rules.json")
	if err := os.WriteFile(w.rulesPath, w.rulesJSON, 0o644); err != nil {
		return nil, err
	}
	if spec.warmRef {
		w.refPath = filepath.Join(dir, "ref.pfdt")
		if err := w.ref.WriteSnapshotFile(w.refPath); err != nil {
			return nil, err
		}
	}
	if w.bodies, err = encodeBodies(w.stream, spec.bodyRows, spec.format); err != nil {
		return nil, err
	}

	opts := []pfd.StreamOption{}
	if spec.warmRef {
		opts = append(opts, pfd.WithWarmup(pfd.FromTable(w.ref)))
	}
	val, err := pfd.Validate(ctx, pfd.FromTable(w.stream), w.rs.PFDs, opts...)
	if err != nil {
		return nil, fmt.Errorf("library validate: %w", err)
	}
	for v := range val.Live() {
		w.expect = append(w.expect, pfd.FindingOf(v, val.WarmRows()))
	}
	sortFindings(w.expect)
	return w, nil
}

// encodeBodies splits the stream into request bodies of rows tuples.
func encodeBodies(t *relation.Table, rows int, format string) ([][]byte, error) {
	var bodies [][]byte
	var row []string
	for lo := 0; lo < t.NumRows(); lo += rows {
		hi := min(lo+rows, t.NumRows())
		var b bytes.Buffer
		switch format {
		case "csv":
			cw := csv.NewWriter(&b)
			if err := cw.Write(t.Cols); err != nil {
				return nil, err
			}
			for i := lo; i < hi; i++ {
				row = t.AppendRowTo(row[:0], i)
				if err := cw.Write(row); err != nil {
					return nil, err
				}
			}
			cw.Flush()
			if err := cw.Error(); err != nil {
				return nil, err
			}
		case "jsonl":
			for i := lo; i < hi; i++ {
				obj := make(map[string]string, len(t.Cols))
				for j, c := range t.Cols {
					obj[c] = t.At(i, j)
				}
				line, err := json.Marshal(obj)
				if err != nil {
					return nil, err
				}
				b.Write(line)
				b.WriteByte('\n')
			}
		default:
			return nil, fmt.Errorf("unknown body format %q", format)
		}
		bodies = append(bodies, b.Bytes())
	}
	return bodies, nil
}

func sortFindings(fs []pfd.ReportFinding) {
	r := pfd.Report{Violations: fs}
	r.Sort()
}

func tenantName(i int) string { return "t" + strconv.Itoa(i) }

func (w *ingestWork) contentType() string {
	if w.spec.format == "csv" {
		return "text/csv"
	}
	return "application/x-ndjson"
}

// ingestOp sends body b to tenant t.
func (w *ingestWork) ingestOp(t, b int) op {
	body := w.bodies[b]
	rows := w.spec.bodyRows
	if b == len(w.bodies)-1 && w.stream.NumRows()%rows != 0 {
		rows = w.stream.NumRows() % rows
	}
	return op{kind: opIngest, method: http.MethodPost, path: "/v1/tenants/" + tenantName(t) + "/tuples",
		ctype: w.contentType(), body: body, rows: rows, tenant: t}
}

// opAt is the workload's request mix: op i of the closed loop.
func (w *ingestWork) opAt(i int) op {
	s := w.spec
	if s.reloadEvery > 0 && i%s.reloadEvery == s.reloadEvery-1 {
		t := (i / s.reloadEvery) % s.tenants
		return op{kind: opReload, method: http.MethodPut, path: "/v1/tenants/" + tenantName(t) + "/ruleset",
			ctype: "application/json", body: w.rulesJSON, tenant: t}
	}
	if i%readEvery == readEvery-1 {
		k := i / readEvery
		t := k % s.tenants
		if !s.reportReads || (k/s.tenants)%2 == 1 {
			return op{kind: opRead, method: http.MethodGet, path: "/v1/tenants/" + tenantName(t) + "/violations?limit=100", tenant: t}
		}
		return op{kind: opRead, method: http.MethodGet, path: "/v1/tenants/" + tenantName(t) + "/report", tenant: t, report: true}
	}
	// Every tenant cycles through the whole stream.
	return w.ingestOp(i%s.tenants, (i/s.tenants)%len(w.bodies))
}

// emptyBody is a request body with no tuples: posting it starts a
// tenant's engine (and its -ref warm replay) without ingesting.
func (w *ingestWork) emptyBody() []byte {
	if w.spec.format == "csv" {
		return []byte(strings.Join(w.stream.Cols, ",") + "\n")
	}
	return []byte{}
}

// daemonArgs are the pfdserved flags of a boot.
func (w *ingestWork) daemonArgs(ringSize int, stateDir string) []string {
	args := []string{"-idle", "0s", "-ring", strconv.Itoa(ringSize)}
	if w.spec.warmRef {
		args = append(args, "-rules", w.rulesPath, "-tenant", tenantName(0), "-ref", w.refPath)
	}
	if w.spec.durable {
		// No -fsync: on this class of machine an fsync's latency swings
		// with the host's disk from run to run. The journal is still
		// written before every ack, so a kill -9 loses nothing acked.
		args = append(args, "-data-dir", stateDir)
	}
	return args
}

// checks collects output-check failures; each counts as a failed op.
type checks struct {
	attempted int
	failures  []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// getReport fetches a tenant's report (or violations view).
func getReport(client *http.Client, url string) (*pfd.Report, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return pfd.ParseReport(data)
}

// do sends one request and requires a 2xx.
func do(client *http.Client, method, url, ctype string, body []byte) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body) // only for the error message
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return nil
}

// verifyPass ingests the whole stream into tenant 0, once, in order,
// over one connection, then checks the tenant against the library
// reference: the acknowledged rows, the report's rows, and the live
// violations. With full (the ring holds every finding) the violation
// set itself must match; otherwise its exact count must.
func (w *ingestWork) verifyPass(base string, c *checks, full bool) (tally, error) {
	g := newLoadGen(base, 1)
	defer g.close()
	next := func(i int) op { return w.ingestOp(0, i) }
	outs, _, _ := g.run(next, 0, len(w.bodies), 0)
	t := tallyOf(outs)
	c.expect(t.failed == 0, "verification pass: %d of %d requests failed", t.failed, t.attempted)
	c.expect(t.accepted[0] == w.stream.NumRows(), "verification pass: %d tuples acknowledged, want %d",
		t.accepted[0], w.stream.NumRows())
	// The report read places a barrier: without a journal an ack does
	// not wait for the shards, so only after it are all findings in.
	tenant := base + "/v1/tenants/" + tenantName(0)
	rep, err := getReport(g.client, tenant+"/report")
	if err != nil {
		return t, err
	}
	c.expect(rep.Rows == t.accepted[0], "verification tenant reports %d rows, %d acknowledged", rep.Rows, t.accepted[0])
	c.expect(rep.LiveViolations == len(w.expect), "verification tenant counts %d live violations, library %d",
		rep.LiveViolations, len(w.expect))
	if full {
		if rep, err = getReport(g.client, tenant+"/violations?limit=0"); err != nil {
			return t, err
		}
		got := rep.Violations
		sortFindings(got)
		c.expect(reflect.DeepEqual(got, w.expect) || (len(got) == 0 && len(w.expect) == 0),
			"verification tenant's %d findings differ from the library's %d", len(got), len(w.expect))
	}
	return t, nil
}

// ingestMetrics is what an untraced ingest run measured.
type ingestMetrics struct {
	setup   []time.Duration
	timed   tally
	elapsed time.Duration
	rate    float64 // windowRate of the timed phase
	rssMB   float64
}

// runIngest is an untraced ingest run against the pfdserved binary.
func runIngest(ctx context.Context, spec *ingestSpec, ref, stream *relation.Table, o runOpts) (*runResult, error) {
	w, err := prepareIngest(ctx, spec, ref, stream, o.work)
	if err != nil {
		return nil, err
	}
	c := &checks{}
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	m := ingestMetrics{}
	base := map[int]int{} // tenant -> rows before the timed load
	if spec.durable {
		d, base, m.setup, err = w.crashAndRestart(o.server, c)
	} else {
		d, m.setup, err = w.bootRules(o.server, c)
	}
	if err != nil {
		return nil, err
	}

	g := newLoadGen(d.base(), conns)
	defer g.close()
	warmOuts, _, next := g.run(w.opAt, 0, 0, warmup)
	start := time.Now()
	outs, elapsed, _ := g.run(w.opAt, next, 0, time.Duration(o.seconds)*time.Second)
	m.timed, m.elapsed = tallyOf(outs), elapsed
	m.rate = windowRate(outs, start, elapsed)
	warm := tallyOf(warmOuts)
	c.expect(warm.failed == 0, "warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	w.checkAccounting(g.client, d.base(), c, base, warm, m.timed)
	if m.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	if err := d.alive(); err != nil {
		return nil, err
	}
	return w.result(m, c), nil
}

// bootRules verifies the daemon on a boot of its own, then measures
// setups boots from launch to every tenant's engine being live
// (tenant 0 loading -rules and the -ref snapshot and replaying it).
// The last boot stays up for the timed load.
func (w *ingestWork) bootRules(bin string, c *checks) (*daemon, []time.Duration, error) {
	d, err := startDaemon(bin, w.daemonArgs(verifyRing, "")...)
	if err != nil {
		return nil, nil, err
	}
	_, err = w.verifyPass(d.base(), c, true)
	d.kill()
	if err != nil {
		return nil, nil, err
	}
	client := &http.Client{}
	var times []time.Duration
	for k := 0; k < setups; k++ {
		start := time.Now()
		d, err = startDaemon(bin, w.daemonArgs(ring, "")...)
		if err != nil {
			return nil, nil, err
		}
		for t := 0; t < w.spec.tenants && err == nil; t++ {
			if t > 0 || !w.spec.warmRef {
				err = do(client, http.MethodPut, d.base()+"/v1/tenants/"+tenantName(t)+"/ruleset", "application/json", w.rulesJSON)
			}
			if err == nil {
				err = do(client, http.MethodPost, d.base()+"/v1/tenants/"+tenantName(t)+"/tuples", w.contentType(), w.emptyBody())
			}
		}
		times = append(times, time.Since(start))
		if err != nil || k < setups-1 {
			d.kill()
		}
		if err != nil {
			return nil, nil, err
		}
	}
	client.CloseIdleConnections()
	return d, times, nil
}

// crashAndRestart runs the durable pre-phase — install the ruleset on
// every tenant, the verification pass into tenant 0, a fixed prefix of
// the stream into the others — then kill -9s the daemon. It then
// measures setups restarts on copies of that crash image, each
// from launch to /healthz OK and every tenant's recovered counters
// equal to what was acknowledged. The last restart stays up.
func (w *ingestWork) crashAndRestart(bin string, c *checks) (*daemon, map[int]int, []time.Duration, error) {
	image, acked, err := w.crashImage(bin, c)
	if err != nil {
		return nil, nil, nil, err
	}
	var d *daemon
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var times []time.Duration
	state := filepath.Join(w.dir, "state")
	for k := 0; k < setups; k++ {
		if err := os.RemoveAll(state); err != nil {
			return nil, nil, nil, err
		}
		if err := copyDir(image, state); err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		d, err = startDaemon(bin, w.daemonArgs(ring, state)...)
		if err != nil {
			return nil, nil, nil, err
		}
		err = waitHealthy(client, d.base())
		var reps []*pfd.Report
		for t := 0; t < w.spec.tenants && err == nil; t++ {
			var rep *pfd.Report
			rep, err = getReport(client, d.base()+"/v1/tenants/"+tenantName(t)+"/report")
			reps = append(reps, rep)
		}
		times = append(times, time.Since(start))
		if err == nil {
			for t, rep := range reps {
				c.expect(rep.Rows == acked[t].Rows && rep.LiveViolations == acked[t].LiveViolations,
					"restart %d: tenant %s recovered rows=%d violations=%d, acknowledged rows=%d violations=%d",
					k, tenantName(t), rep.Rows, rep.LiveViolations, acked[t].Rows, acked[t].LiveViolations)
			}
		}
		if err != nil || k < setups-1 {
			d.kill()
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	base := map[int]int{}
	for t, rep := range acked {
		base[t] = rep.Rows
	}
	return d, base, times, nil
}

// crashImage boots the daemon on an empty data directory, runs the
// pre-phase, and kill -9s it. It returns the directory the crash left
// and each tenant's acknowledged report.
func (w *ingestWork) crashImage(bin string, c *checks) (string, map[int]*pfd.Report, error) {
	image := filepath.Join(w.dir, "crash-image")
	d, err := startDaemon(bin, w.daemonArgs(ring, image)...)
	if err != nil {
		return "", nil, err
	}
	acked, err := w.prephase(d, c)
	d.kill()
	return image, acked, err
}

// prephase is the durable workload's untimed pre-phase; it returns each
// tenant's acknowledged report.
func (w *ingestWork) prephase(d *daemon, c *checks) (map[int]*pfd.Report, error) {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for t := 0; t < w.spec.tenants; t++ {
		if err := do(client, http.MethodPut, d.base()+"/v1/tenants/"+tenantName(t)+"/ruleset", "application/json", w.rulesJSON); err != nil {
			return nil, err
		}
	}
	if _, err := w.verifyPass(d.base(), c, false); err != nil {
		return nil, err
	}
	g := newLoadGen(d.base(), 1)
	defer g.close()
	for t := 1; t < w.spec.tenants; t++ {
		next := func(i int) op { return w.ingestOp(t, i) }
		outs, _, _ := g.run(next, 0, prephaseBodies, 0)
		pt := tallyOf(outs)
		c.expect(pt.failed == 0, "pre-phase: %d requests to tenant %s failed", pt.failed, tenantName(t))
	}
	acked := map[int]*pfd.Report{}
	for t := 0; t < w.spec.tenants; t++ {
		rep, err := getReport(client, d.base()+"/v1/tenants/"+tenantName(t)+"/report")
		if err != nil {
			return nil, err
		}
		acked[t] = rep
	}
	return acked, nil
}

// waitHealthy polls /healthz until the daemon answers status ok.
func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(bootTimeout)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ok after %v", base, bootTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkAccounting requires each tenant's report rows to equal what it
// had before the load plus every acknowledged tuple since.
func (w *ingestWork) checkAccounting(client *http.Client, base string, c *checks, before map[int]int, phases ...tally) {
	for t := 0; t < w.spec.tenants; t++ {
		want := before[t]
		for _, p := range phases {
			want += p.accepted[t]
		}
		rep, err := getReport(client, base+"/v1/tenants/"+tenantName(t)+"/report")
		if err != nil {
			c.expect(false, "report for tenant %s: %v", tenantName(t), err)
			continue
		}
		c.expect(rep.Rows == want, "tenant %s reports %d rows, %d acknowledged", tenantName(t), rep.Rows, want)
	}
}

// result turns an untraced ingest run into the benchmark's output.
func (w *ingestWork) result(m ingestMetrics, c *checks) *runResult {
	t := m.timed
	r := newRunResult()
	r.attempted = t.attempted + c.attempted
	r.failed = t.failed + len(c.failures)
	r.failures = c.failures
	ack := latencies(t.ingestLat, t.ingestFail)
	reads := latencies(t.readLat, t.readFail)
	r.set("setup_s", medianDur(m.setup), "s", len(m.setup))
	r.set("rows_per_s", m.rate, "1/s", int(m.elapsed/time.Second))
	r.pct("ack_p50_ms", ack, 50)
	r.pct("ack_p90_ms", ack, 90)
	r.pct("read_p50_ms", reads, 50)
	// The daemon neither discovers nor repairs, but every run prints
	// every end-to-end metric: on an ingest workload the three stage
	// times all read the time one pass of the stream takes at the
	// measured rate, and carry no information rows_per_s does not.
	pass := float64(w.stream.NumRows()) / m.rate
	for _, name := range []string{"discover_s", "detect_s", "repair_s"} {
		r.set(name, pass, "s", int(m.elapsed/time.Second))
	}
	r.set("peak_rss_mb", m.rssMB, "MB", 1)
	r.note("ack", ack)
	r.note("read", reads)
	r.note("read report", latencies(t.reportLat, 0))
	r.note("read violations", latencies(t.listLat, 0))
	if len(t.reloadLat) > 0 {
		r.note("reload", latencies(t.reloadLat, t.reloadFail))
	}
	r.notes = append(r.notes, fmt.Sprintf("timed phase: %d ops, %d failed, %d sent twice after a refused or reset connection",
		t.attempted, t.failed, t.retried))
	return r
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// sortedKeys lists a map's keys in order (deterministic reports).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
