package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pfd"
	"pfd/internal/discovery"
	"pfd/internal/durable"
	"pfd/internal/index"
	pfdcore "pfd/internal/pfd"
	"pfd/internal/plan"
	"pfd/internal/relation"
	"pfd/internal/repair"
	"pfd/internal/serve"
	"pfd/internal/source"
	"pfd/internal/stream"
)

// perLayer lists every per-layer metric with its unit, in the order the
// traced report prints them. A metric a workload's path does not reach
// (durable.* without -data-dir, say) reads 0.
var perLayer = []struct{ name, unit string }{
	{"serve.ingest_us", "us"},
	{"serve.self_us", "us"},
	{"serve.read_us", "us"},
	{"serve.reload_ms", "ms"},
	{"serve.client_us", "us"},
	{"serve.failed", "count"},
	{"serve.retried", "count"},
	{"source.decode_us_per_body", "us"},
	{"source.alloc_kb_per_body", "KiB"},
	{"source.decode_us_per_row", "us"},
	{"source.read_table_ms", "ms"},
	{"relation.load_snapshot_ms", "ms"},
	{"stream.submit_us_per_row", "us"},
	{"stream.apply_wait_us_per_row", "us"},
	{"stream.barrier_us", "us"},
	{"stream.warmup_us_per_row", "us"},
	{"stream.backlog_max", "count"},
	{"stream.violations_per_krow", "count"},
	{"durable.append_us", "us"},
	{"durable.append_nosync_us", "us"},
	{"durable.compact_ms", "ms"},
	{"durable.compactions", "count"},
	{"durable.bytes_per_row", "B"},
	{"durable.records_replayed", "count"},
	{"durable.replay_ms", "ms"},
	{"discovery.profile_ms", "ms"},
	{"discovery.index_ms", "ms"},
	{"discovery.lattice_ms", "ms"},
	{"discovery.candidates", "count"},
	{"discovery.deps_per_candidate", "ratio"},
	{"plan.build_us", "us"},
	{"plan.violations_ms", "ms"},
	{"repair.detect_ms", "ms"},
	{"repair.apply_ms", "ms"},
	{"repair.rounds", "count"},
	{"repair.cells_repaired", "count"},
	{"runtime.alloc_mb_per_krow", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.rows_per_s_untraced", "1/s"},
	{"trace.rows_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// layer sets a per-layer metric by name.
func (r *runResult) layer(name string, v float64) {
	for _, l := range perLayer {
		if l.name == name {
			r.set(name, v, l.unit, r.samples[name])
			return
		}
	}
	panic("unknown per-layer metric " + name) // a typo in this file
}

// fillLayers sets every per-layer metric the run did not reach to 0.
func (r *runResult) fillLayers() {
	for _, l := range perLayer {
		if _, ok := r.metrics[l.name]; !ok {
			r.set(l.name, 0, l.unit, 0)
		}
	}
}

// timeN runs fn n times and returns the median duration.
func timeN(n int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	return time.Duration(medianDur(ds) * float64(time.Second)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memDelta measures allocation and GC activity over fn.
type memDelta struct {
	allocMB  float64
	gcCycles uint32
	pauseMS  float64
}

func measureMem(fn func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memDelta{
		allocMB:  float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcCycles: b.NumGC - a.NumGC,
		pauseMS:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// discoverSplit is a discovery run split by layer.
type discoverSplit struct {
	total, profile, index, lattice time.Duration
	candidates, deps               int
}

// traceDiscover runs DiscoverContext with per-level timestamps from its
// progress callback, and mirrors the profile and index builds it does
// first. The lattice time is what the last level's timestamp leaves
// after the mirrored profile and index times.
func traceDiscover(ctx context.Context, tr *tracer, parent, req int64, t *relation.Table) (*discovery.Result, discoverSplit, error) {
	var s discoverSplit
	params := discovery.DefaultParams().Normalize()
	id := tr.id()
	start := time.Now()
	var last time.Time
	var levels []time.Time
	res, err := discovery.DiscoverContext(ctx, t, params, func(p discovery.Progress) {
		last = time.Now()
		levels = append(levels, last)
		s.candidates = p.Candidates
	})
	end := time.Now()
	if err != nil {
		return nil, s, err
	}
	tr.record(id, parent, req, "discovery", start, end)
	s.total, s.deps = end.Sub(start), len(res.Dependencies)

	p0 := time.Now()
	profiles := relation.ProfileTable(t)
	p1 := time.Now()
	var usable []string
	for _, p := range profiles {
		if !p.Quantitative && p.Distinct >= 2 {
			usable = append(usable, p.Name)
		}
	}
	index.Build(t, profiles, usable, index.Options{MaxGram: params.MaxGram, MinIDs: params.MinSupport, DisablePrune: params.DisableSubstringPrune})
	p2 := time.Now()
	tr.add(0, req, "discovery.profile", p0, p1)
	tr.add(0, req, "discovery.index", p1, p2)
	s.profile, s.index = p1.Sub(p0), p2.Sub(p1)
	if !last.IsZero() {
		s.lattice = max(last.Sub(start)-s.profile-s.index, 0)
		prev := start.Add(s.profile + s.index)
		for k, at := range levels {
			tr.add(id, req, "discovery.level"+strconv.Itoa(k+1), prev, at)
			prev = at
		}
	}
	return res, s, nil
}

// detectSplit is detection and repair split by layer.
type detectSplit struct {
	planBuild, planViolations, detect, apply time.Duration
	rounds, repaired                         int
}

// traceDetectRepair times the planner, detection, and one repair round
// on t, then runs holistic repair for its round and cell counts.
func traceDetectRepair(ctx context.Context, tr *tracer, req int64, t *relation.Table, pfds []*pfdcore.PFD) (detectSplit, error) {
	var s detectSplit
	t0 := time.Now()
	p := plan.New(pfds)
	t1 := time.Now()
	if _, err := p.ViolationsContext(ctx, t); err != nil {
		return s, err
	}
	t2 := time.Now()
	findings, err := repair.DetectContextOptions(ctx, t, pfds, repair.Options{})
	if err != nil {
		return s, err
	}
	t3 := time.Now()
	repair.Apply(t, findings)
	t4 := time.Now()
	res, err := repair.HolisticContext(ctx, t.Clone(), pfds, repair.HolisticOptions{})
	if err != nil {
		return s, err
	}
	tr.add(0, req, "plan.build", t0, t1)
	tr.add(0, req, "plan.violations", t1, t2)
	tr.add(0, req, "repair.detect", t2, t3)
	tr.add(0, req, "repair.apply", t3, t4)
	s.planBuild, s.planViolations, s.detect, s.apply = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	s.rounds, s.repaired = res.Rounds, res.Repaired
	return s, nil
}

// mirrorStats accumulates what the mirrored ingest calls measured.
type mirrorStats struct {
	mu              sync.Mutex
	rows            int
	submit, barrier []time.Duration
	appends         []time.Duration
	backlogMax      int
	records         []durable.Record
}

// shadow is the in-process replica an ingest body is replayed through:
// one engine per tenant, configured as the daemon configures its
// tenants, and (durable workload) a journal of its own.
type shadow struct {
	w       *ingestWork
	tr      *tracer
	engines []*stream.Engine
	store   *durable.Store
	st      mirrorStats
	live    []atomic.Int64 // per tenant: rows replayed
	viols   []atomic.Int64 // per tenant: live violations found
}

func newShadow(ctx context.Context, w *ingestWork, tr *tracer, ref *relation.Table) (*shadow, error) {
	sh := &shadow{w: w, tr: tr, live: make([]atomic.Int64, w.spec.tenants), viols: make([]atomic.Int64, w.spec.tenants)}
	for t := 0; t < w.spec.tenants; t++ {
		viols := &sh.viols[t]
		eng := stream.NewContext(ctx, w.rs.PFDs, stream.Options{DiscardViolations: true,
			OnViolation: func(v pfdcore.StreamViolation) {
				if v.NewTuple {
					viols.Add(1)
				}
			}})
		if w.spec.warmRef && t == 0 {
			if err := eng.SubmitTable(ref); err != nil {
				return nil, err
			}
			eng.Snapshot()
		}
		sh.engines = append(sh.engines, eng)
	}
	// Every workload journals its replayed batches, so the durable
	// layer is measured on each workload's record shapes; only with
	// -data-dir does the daemon's ack wait for the append.
	st, _, err := durable.Open(durable.Options{Dir: filepath.Join(w.dir, "shadow-journal")})
	if err != nil {
		return nil, err
	}
	sh.store = st
	return sh, nil
}

func (sh *shadow) close() {
	for _, e := range sh.engines {
		e.Close()
	}
	sh.store.Close() //nolint:errcheck // scratch journal
}

// decodeBody runs the daemon's decoder over one body.
func decodeBody(body []byte, format string) ([]source.Tuple, error) {
	var src source.Source
	if format == "csv" {
		src = source.NewCSV("ingest", bytes.NewReader(body))
	} else {
		src = source.NewJSONL("ingest", bytes.NewReader(body))
	}
	var out []source.Tuple
	for t, err := range src.Tuples(context.Background()) {
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// mirror replays an acknowledged ingest body through the handler's
// sequence, one layer call at a time: decode, Submit, the barrier, and
// (durable) the digest and journal append.
func (sh *shadow) mirror(o op, req, id int64) {
	start := time.Now()
	tuples, err := decodeBody(o.body, sh.w.spec.format)
	t1 := time.Now()
	if err != nil {
		return
	}
	eng := sh.engines[o.tenant]
	for _, t := range tuples {
		if eng.Submit(t) != nil {
			return
		}
	}
	t2 := time.Now()
	backlog, _ := eng.Backlog()
	eng.Snapshot()
	t3 := time.Now()
	var dg durable.BatchDigest
	for _, t := range tuples {
		dg.Add(t)
	}
	rows := sh.live[o.tenant].Add(int64(len(tuples)))
	rec := durable.BatchIngested(durable.IngestRecord{Tenant: tenantName(o.tenant), Digest: dg.Sum(),
		Accepted: int64(len(tuples)), Rows: rows, LiveViolations: sh.viols[o.tenant].Load()})
	a0 := time.Now()
	if sh.store.Append(rec) != nil {
		return
	}
	appendOnly := time.Since(a0)
	t4 := time.Now()
	sh.tr.add(id, req, "source.decode", start, t1)
	sh.tr.add(id, req, "stream.submit", t1, t2)
	sh.tr.add(id, req, "stream.barrier", t2, t3)
	sh.tr.add(id, req, "durable.append", t3, t4)
	sh.tr.record(id, 0, req, "mirror", start, t4)

	s := &sh.st
	s.mu.Lock()
	s.rows += len(tuples)
	s.submit = append(s.submit, t2.Sub(t1))
	s.barrier = append(s.barrier, t3.Sub(t2))
	s.appends = append(s.appends, appendOnly)
	s.records = append(s.records, rec)
	s.backlogMax = max(s.backlogMax, backlog)
	s.mu.Unlock()
}

// inProcess is serve.Server behind a loopback listener, with the
// handler timed per request.
type inProcess struct {
	srv  *serve.Server
	hs   *http.Server
	ln   net.Listener
	done chan struct{}
}

func startInProcess(ctx context.Context, cfg serve.Config, tr *tracer) (*inProcess, error) {
	srv, err := serve.NewContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	timed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		name := "serve.read"
		switch r.Method {
		case http.MethodPost:
			name = "serve.ingest"
		case http.MethodPut:
			name = "serve.reload"
		}
		tr.add(parent, req, name, start, time.Now())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	p := &inProcess{srv: srv, hs: &http.Server{Handler: timed}, ln: ln, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.hs.Serve(ln) //nolint:errcheck // ErrServerClosed at stop
	}()
	return p, nil
}

func (p *inProcess) base() string { return "http://" + p.ln.Addr().String() }

func (p *inProcess) stop() {
	p.hs.Close() //nolint:errcheck // tearing down
	<-p.done
	p.srv.Drain()
}

// get serves one GET straight through the handler, off the wire.
func (p *inProcess) get(path string) []byte {
	rec := httptest.NewRecorder()
	p.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}

// pollBacklog samples the tenants' shard backlog until stop closes.
func (p *inProcess) pollBacklog(stop <-chan struct{}) (maxBatches *atomic.Int64, done <-chan struct{}) {
	maxBatches = &atomic.Int64{}
	d := make(chan struct{})
	go func() {
		defer close(d)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			var list struct {
				Tenants []struct {
					Backlog int64 `json:"backlog_batches"`
				} `json:"tenants"`
			}
			if json.Unmarshal(p.get("/v1/tenants"), &list) != nil {
				continue
			}
			for _, t := range list.Tenants {
				if t.Backlog > maxBatches.Load() {
					maxBatches.Store(t.Backlog)
				}
			}
		}
	}()
	return maxBatches, d
}

// metricValue reads one unlabeled sample from a Prometheus exposition.
func metricValue(expo []byte, name string) float64 {
	for _, line := range strings.Split(string(expo), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// traceIngest is the traced run of an ingest workload: setup-path layer
// calls in-process, then the same request mix against an in-process
// serve.Server, first untraced, then traced with every acknowledged
// body replayed through the layers.
func traceIngest(ctx context.Context, spec *ingestSpec, ref, dirty *relation.Table, o runOpts) (*runResult, error) {
	w, err := prepareIngest(ctx, spec, ref, dirty, o.work)
	if err != nil {
		return nil, err
	}
	r := newRunResult()
	c := &checks{}
	tr := newTracer()

	// Setup path.
	var snap *relation.Table
	if spec.warmRef {
		d, err := timeN(3, func() error { var e error; snap, e = relation.LoadSnapshotFile(w.refPath); return e })
		if err != nil {
			return nil, err
		}
		r.layer("relation.load_snapshot_ms", ms(d))
		d, err = timeN(3, func() error {
			eng := stream.NewContext(ctx, w.rs.PFDs, stream.Options{DiscardViolations: true})
			defer eng.Close()
			if err := eng.SubmitTable(snap); err != nil {
				return err
			}
			eng.Snapshot()
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.layer("stream.warmup_us_per_row", us(d)/float64(snap.NumRows()))
	}

	cfg := serve.DefaultConfig()
	cfg.Ring, cfg.IdleTimeout = ring, 0
	before := map[int]int{}
	if spec.durable {
		image, acked, err := w.crashImage(o.server, c)
		if err != nil {
			return nil, err
		}
		for t, rep := range acked {
			before[t] = rep.Rows
		}
		if err := r.replay(image, filepath.Join(w.dir, "replay")); err != nil {
			return nil, err
		}
		cfg.DataDir = filepath.Join(w.dir, "state")
		if err := copyDir(image, cfg.DataDir); err != nil {
			return nil, err
		}
	}

	p, err := startInProcess(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	if spec.warmRef {
		if err := p.srv.LoadTenant(tenantName(0), w.rs); err != nil {
			return nil, err
		}
		if err := p.srv.SetTenantRef(tenantName(0), snap); err != nil {
			return nil, err
		}
	}
	for t := 0; t < spec.tenants; t++ {
		if !spec.durable && (t > 0 || !spec.warmRef) {
			if err := do(client, http.MethodPut, p.base()+"/v1/tenants/"+tenantName(t)+"/ruleset", "application/json", w.rulesJSON); err != nil {
				return nil, err
			}
		}
		if err := do(client, http.MethodPost, p.base()+"/v1/tenants/"+tenantName(t)+"/tuples", w.contentType(), w.emptyBody()); err != nil {
			return nil, err
		}
	}

	// Both phases run one connection, so a request's spans and its
	// mirrored replay never share the CPU with another request: the
	// split shows each layer's own cost. Phase A, untraced, gives the
	// rate the trace overhead is measured against, and the runtime's
	// allocation and GC counts.
	half := time.Duration(o.seconds) * time.Second / 2
	g := newLoadGen(p.base(), 1)
	defer g.close()
	warmOuts, _, next := g.run(w.opAt, 0, 0, warmup)
	var outsA []outcome
	var elA time.Duration
	mem := measureMem(func() { outsA, elA, next = g.run(w.opAt, next, 0, half) })
	ta := tallyOf(outsA)
	rateA := float64(ta.rowsOK) / elA.Seconds()
	r.layer("runtime.alloc_mb_per_krow", mem.allocMB/(float64(ta.rowsOK)/1e3))
	r.layer("runtime.gc_cycles", float64(mem.gcCycles))
	r.layer("runtime.gc_pause_ms", mem.pauseMS)

	// Phase B, traced.
	sh, err := newShadow(ctx, w, tr, snap)
	if err != nil {
		return nil, err
	}
	defer sh.close()
	g.tr = tr
	g.mirror = func(o op, req, id int64) {
		if !spec.durable {
			// Without a journal the ack does not wait for the shards to
			// apply the body; let them finish before the replay, so the
			// replay does not share the CPU with the daemon's apply.
			p.get("/v1/tenants/" + tenantName(o.tenant) + "/report")
		}
		sh.mirror(o, req, id)
	}
	stop := make(chan struct{})
	backlog, polled := p.pollBacklog(stop)
	outsB, elB, _ := g.run(w.opAt, next, 0, half)
	close(stop)
	<-polled
	tb := tallyOf(outsB)
	rateB := float64(tb.rowsOK) / elB.Seconds()
	r.layer("trace.rows_per_s_untraced", rateA)
	r.layer("trace.rows_per_s", rateB)
	r.layer("trace.overhead_pct", 100*(rateA-rateB)/rateA)
	r.layer("serve.failed", float64(ta.failed+tb.failed))
	r.layer("serve.retried", float64(ta.retried+tb.retried))
	r.layer("stream.backlog_max", float64(max(backlog.Load(), int64(sh.st.backlogMax))))
	r.layer("stream.violations_per_krow", 1e3*float64(len(w.expect))/float64(w.stream.NumRows()))
	w.checkAccounting(client, p.base(), c, before, tallyOf(warmOuts), ta, tb)

	spans := tr.snapshot()
	r.ingestSpans(spans, &sh.st, spec.durable)
	if _, ok := r.metrics["serve.reload_ms"]; !ok {
		// The mix has no reloads: time a few ruleset re-PUTs through
		// the handler, after the load.
		d, err := timeN(5, func() error {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPut, "/v1/tenants/"+tenantName(0)+"/ruleset", bytes.NewReader(w.rulesJSON))
			p.srv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ruleset reload: %d %s", rec.Code, rec.Body.String())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.layer("serve.reload_ms", ms(d))
	}
	if err := r.decodeLayer(w); err != nil {
		return nil, err
	}
	if err := r.durableLayer(w, sh, p); err != nil {
		return nil, err
	}
	r.attempted = ta.attempted + tb.attempted + c.attempted
	r.failed += ta.failed + tb.failed + len(c.failures)
	r.failures = append(r.failures, c.failures...)
	r.fillLayers()
	path := filepath.Join(o.root, ".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", spec.name, os.Getpid()))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return r, nil
}

func (r *runResult) setDiscovery(s discoverSplit) {
	r.layer("discovery.profile_ms", ms(s.profile))
	r.layer("discovery.index_ms", ms(s.index))
	r.layer("discovery.lattice_ms", ms(s.lattice))
	r.layer("discovery.candidates", float64(s.candidates))
	if s.candidates > 0 {
		r.layer("discovery.deps_per_candidate", float64(s.deps)/float64(s.candidates))
	}
}

func (r *runResult) setDetect(s detectSplit) {
	r.layer("plan.build_us", us(s.planBuild))
	r.layer("plan.violations_ms", ms(s.planViolations))
	r.layer("repair.detect_ms", ms(s.detect))
	r.layer("repair.apply_ms", ms(s.apply))
	r.layer("repair.rounds", float64(s.rounds))
	r.layer("repair.cells_repaired", float64(s.repaired))
}

// ingestSpans derives the serve and stream metrics from the spans and
// prints the layer split of an ingest request. The client span's self
// time (round trip minus the handler span beneath it) comes from the
// span tree; the handler's own share is its span minus the mirrored
// calls that sit on the ack path: decode and Submit always, the
// barrier and the journal append only when durability makes the
// handler wait for them.
func (r *runResult) ingestSpans(spans []span, st *mirrorStats, durableAck bool) {
	self := selfTimes(spans)
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var ingest, read, reload, client []float64
	var sum struct{ client, serve, decode, submit, barrier, append float64 }
	n := 0
	for _, ss := range byReq {
		var cl, sv *span
		var decode, submit, barrier, appendDur int64
		for i := range ss {
			switch s := &ss[i]; s.Name {
			case "client":
				cl = s
			case "serve.ingest", "serve.read", "serve.reload":
				sv = s
			case "source.decode":
				decode = s.dur()
			case "stream.submit":
				submit = s.dur()
			case "stream.barrier":
				barrier = s.dur()
			case "durable.append":
				appendDur = s.dur()
			}
		}
		if cl == nil || sv == nil {
			continue
		}
		client = append(client, us(time.Duration(self[cl.ID])))
		switch sv.Name {
		case "serve.ingest":
			if decode == 0 {
				continue // not replayed: the request failed
			}
			onPath := decode + submit
			if durableAck {
				onPath += barrier + appendDur
			}
			ingest = append(ingest, us(time.Duration(sv.dur())))
			n++
			sum.client += us(time.Duration(self[cl.ID]))
			sum.serve += us(time.Duration(sv.dur() - onPath))
			sum.decode += us(time.Duration(decode))
			sum.submit += us(time.Duration(submit))
			sum.barrier += us(time.Duration(barrier))
			sum.append += us(time.Duration(appendDur))
		case "serve.read":
			read = append(read, us(time.Duration(sv.dur())))
		case "serve.reload":
			reload = append(reload, us(time.Duration(sv.dur()))/1e3)
		}
	}
	r.layer("serve.ingest_us", median(ingest))
	r.samples["serve.ingest_us"] = len(ingest)
	// The handler's own share is a small difference of two large
	// timings on a CPU-bound body; its mean is steadier than its median.
	if n > 0 {
		r.layer("serve.self_us", sum.serve/float64(n))
		r.samples["serve.self_us"] = n
	}
	r.layer("serve.read_us", median(read))
	r.samples["serve.read_us"] = len(read)
	if len(reload) > 0 {
		r.layer("serve.reload_ms", median(reload))
		r.samples["serve.reload_ms"] = len(reload)
	}
	r.layer("serve.client_us", median(client))
	r.samples["serve.client_us"] = len(client)

	var sub, bar time.Duration
	for i := range st.submit {
		sub += st.submit[i]
		bar += st.barrier[i]
	}
	if st.rows > 0 {
		r.layer("stream.submit_us_per_row", us(sub)/float64(st.rows))
		r.layer("stream.apply_wait_us_per_row", us(bar)/float64(st.rows))
	}
	xs := make([]float64, len(st.barrier))
	for i, b := range st.barrier {
		xs[i] = us(b)
	}
	r.layer("stream.barrier_us", median(xs))
	r.samples["stream.barrier_us"] = len(xs)

	if n > 0 {
		f := float64(n)
		rows := []splitRow{
			{"client + loopback (serve.client)", sum.client / f, false},
			{"serve: routing, locks, response", sum.serve / f, false},
			{"source.decode", sum.decode / f, false},
			{"stream.submit (match + route)", sum.submit / f, false},
			{"stream.barrier (shard apply wait)", sum.barrier / f, !durableAck},
		}
		rows = append(rows, splitRow{"durable: digest + append (no fsync)", sum.append / f, !durableAck})
		var b strings.Builder
		printSplit(&b, fmt.Sprintf("mean self time per acknowledged ingest request (%d requests, one connection)", n), "us/request", rows)
		r.notes = append(r.notes, b.String())
	}
}

// decodeLayer times the workload's decoder on its own bodies, with
// allocations, outside any request.
func (r *runResult) decodeLayer(w *ingestWork) error {
	const rounds = 200
	var rows int
	var elapsed time.Duration
	var err error
	mem := measureMem(func() {
		start := time.Now()
		for i := 0; i < rounds && err == nil; i++ {
			var ts []source.Tuple
			ts, err = decodeBody(w.bodies[i%len(w.bodies)], w.spec.format)
			rows += len(ts)
		}
		elapsed = time.Since(start)
	})
	if err != nil {
		return err
	}
	r.layer("source.decode_us_per_body", us(elapsed)/rounds)
	r.layer("source.alloc_kb_per_body", mem.allocMB*1024/rounds)
	r.layer("source.decode_us_per_row", us(elapsed)/float64(rows))
	return nil
}

// replay times durable.Open on copies of a data directory, as a boot
// after a crash there would (median of three).
func (r *runResult) replay(image, dir string) error {
	var replays []time.Duration
	var rec *durable.Recovery
	for k := 0; k < 3; k++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := copyDir(image, dir); err != nil {
			return err
		}
		start := time.Now()
		st, rc, err := durable.Open(durable.Options{Dir: dir})
		if err != nil {
			return err
		}
		replays = append(replays, time.Since(start))
		rec = rc
		if err := st.Close(); err != nil {
			return err
		}
	}
	r.layer("durable.replay_ms", 1e3*medianDur(replays))
	r.layer("durable.records_replayed", float64(rec.Records))
	return nil
}

// durableLayer measures the journal: the mirrored appends (no fsync,
// the durable workload's flush policy), the same records appended with
// fsync (the gap is the machine's flush cost), one compaction, bytes
// per row, and the daemon's compaction count. Without a daemon crash
// image (ingest-rules runs no journal) the replay is of the mirror's
// own journal, copied while open as a crash would leave it.
func (r *runResult) durableLayer(w *ingestWork, sh *shadow, p *inProcess) error {
	st := &sh.st
	if !w.spec.durable {
		if err := r.replay(filepath.Join(w.dir, "shadow-journal"), filepath.Join(w.dir, "replay")); err != nil {
			return err
		}
	}
	xs := make([]float64, len(st.appends))
	for i, a := range st.appends {
		xs[i] = us(a)
	}
	r.layer("durable.append_nosync_us", median(xs))
	r.samples["durable.append_nosync_us"] = len(xs)
	if st.rows > 0 {
		r.layer("durable.bytes_per_row", float64(sh.store.Stats().BytesTotal)/float64(st.rows))
	}
	synced, _, err := durable.Open(durable.Options{Dir: filepath.Join(w.dir, "fsync-journal"), Fsync: true})
	if err != nil {
		return err
	}
	defer synced.Close() //nolint:errcheck // scratch journal
	var ds []float64
	for i, rec := range st.records {
		if i == 200 {
			break
		}
		start := time.Now()
		if err := synced.Append(rec); err != nil {
			return err
		}
		ds = append(ds, us(time.Since(start)))
	}
	r.layer("durable.append_us", median(ds))
	r.samples["durable.append_us"] = len(ds)
	var states []durable.TenantState
	for t := 0; t < w.spec.tenants; t++ {
		states = append(states, durable.TenantState{Name: tenantName(t), Generation: 1, Ruleset: w.rulesJSON,
			Rows: sh.live[t].Load()})
	}
	start := time.Now()
	if err := sh.store.Compact(func() []durable.TenantState { return states }); err != nil {
		return err
	}
	r.layer("durable.compact_ms", ms(time.Since(start)))
	r.layer("durable.compactions", metricValue(p.get("/metrics"), "pfd_wal_compactions_total"))
	return nil
}

// traceBatch is the traced run of batch-paper, in-process: passes of
// the root-API pipeline untraced, then traced passes with each layer's
// public calls mirrored per table.
func traceBatch(ctx context.Context, tables []*relation.Table, o runOpts) (*runResult, error) {
	r := newRunResult()
	tr := newTracer()
	dir := filepath.Join(o.work, "tables")
	if err := writeBatchInputs(tables, dir); err != nil {
		return nil, err
	}
	rows := 0
	for _, t := range tables {
		rows += t.NumRows()
	}
	read, err := timeN(3, func() error {
		for _, t := range tables {
			if _, err := pfd.ReadTable(ctx, pfd.FromCSVFile(t.Name, filepath.Join(dir, t.Name+".csv"))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.layer("source.read_table_ms", ms(read))

	half := time.Duration(o.seconds) * time.Second / 2
	pipeline := func(t *relation.Table) error {
		in := t.Clone()
		disc, err := pfd.Discover(ctx, pfd.FromTable(in))
		if err != nil {
			return err
		}
		if _, err := pfd.Detect(ctx, pfd.FromTable(in), disc.PFDs()); err != nil {
			return err
		}
		_, err = pfd.RepairToFixpoint(ctx, pfd.FromTable(in), disc.PFDs())
		return err
	}
	var passA []float64
	var perr error
	mem := measureMem(func() {
		deadline := time.Now().Add(half)
		for p := 0; p < 2 || time.Now().Before(deadline); p++ {
			start := time.Now()
			for _, t := range tables {
				if perr = pipeline(t); perr != nil {
					return
				}
			}
			passA = append(passA, time.Since(start).Seconds())
		}
	})
	if perr != nil {
		return nil, perr
	}
	rateA := float64(rows) / median(passA)
	r.layer("runtime.alloc_mb_per_krow", mem.allocMB/(float64(rows*len(passA))/1e3))
	r.layer("runtime.gc_cycles", float64(mem.gcCycles)/float64(len(passA)))
	r.layer("runtime.gc_pause_ms", mem.pauseMS/float64(len(passA)))

	// Traced passes: the pipeline's three root calls as spans, then the
	// layer calls beneath them mirrored on the same table.
	var passB []float64
	var disc discoverSplit
	var det detectSplit
	var discSum, detectSum, repairSum time.Duration
	passes := 0
	deadline := time.Now().Add(half)
	for p := 0; passes < 1 || time.Now().Before(deadline); p++ {
		start := time.Now()
		for _, t := range tables {
			req := tr.id()
			in := t.Clone()
			root := tr.id()
			t0 := time.Now()
			res, ds, err := traceDiscover(ctx, tr, root, req, in)
			if err != nil {
				return nil, err
			}
			pfds := make([]*pfdcore.PFD, len(res.Dependencies))
			for i, dep := range res.Dependencies {
				pfds[i] = dep.PFD
			}
			t1 := time.Now()
			if _, err := pfd.Detect(ctx, pfd.FromTable(in), pfds); err != nil {
				return nil, err
			}
			t2 := time.Now()
			if _, err := pfd.RepairToFixpoint(ctx, pfd.FromTable(in), pfds); err != nil {
				return nil, err
			}
			t3 := time.Now()
			tr.add(root, req, "detect", t1, t2)
			tr.add(root, req, "repair", t2, t3)
			tr.record(root, 0, req, "pipeline", t0, t3)
			dd, err := traceDetectRepair(ctx, tr, req, in, pfds)
			if err != nil {
				return nil, err
			}
			disc.profile += ds.profile
			disc.index += ds.index
			disc.lattice += ds.lattice
			disc.candidates += ds.candidates
			disc.deps += ds.deps
			det.planBuild += dd.planBuild
			det.planViolations += dd.planViolations
			det.detect += dd.detect
			det.apply += dd.apply
			det.rounds += dd.rounds
			det.repaired += dd.repaired
			discSum += ds.total
			detectSum += t2.Sub(t1)
			repairSum += t3.Sub(t2)
		}
		passes++
		passB = append(passB, time.Since(start).Seconds())
	}
	rateB := float64(rows) / median(passB)
	perPass := func(d time.Duration) time.Duration { return d / time.Duration(passes) }
	r.setDiscovery(discoverSplit{profile: perPass(disc.profile), index: perPass(disc.index), lattice: perPass(disc.lattice),
		candidates: disc.candidates / passes, deps: disc.deps / passes})
	r.setDetect(detectSplit{planBuild: perPass(det.planBuild), planViolations: perPass(det.planViolations),
		detect: perPass(det.detect), apply: perPass(det.apply), rounds: det.rounds / passes, repaired: det.repaired / passes})
	r.layer("trace.rows_per_s_untraced", rateA)
	r.layer("trace.rows_per_s", rateB)
	r.layer("trace.overhead_pct", 100*(rateA-rateB)/rateA)
	r.attempted = len(tables) * (len(passA) + passes)

	var b strings.Builder
	discPass, detPass, repPass := ms(perPass(discSum)), ms(perPass(detectSum)), ms(perPass(repairSum))
	printSplit(&b, fmt.Sprintf("self time per pass over T1–T15 (%d traced passes)", passes), "ms/pass", []splitRow{
		{"source.read_table (setup)", ms(read), false},
		{"discovery.profile", ms(perPass(disc.profile)), false},
		{"discovery.index", ms(perPass(disc.index)), false},
		{"discovery.lattice", max(discPass-ms(perPass(disc.profile))-ms(perPass(disc.index)), 0), false},
		{"detect (planner, dedup)", detPass, false},
		{"repair (holistic rounds)", repPass, false},
	})
	r.notes = append(r.notes, b.String())
	r.fillLayers()
	path := filepath.Join(o.root, ".bench_build", "trace", fmt.Sprintf("batch-paper-%d.jsonl", os.Getpid()))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("%d spans written to %s", len(tr.snapshot()), path))
	return r, nil
}
