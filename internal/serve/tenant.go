package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pfd"
	"pfd/internal/durable"
)

// errNoRuleset refuses ingest into a tenant that has never been given
// rules.
var errNoRuleset = errors.New("tenant has no ruleset (PUT /v1/tenants/{tenant}/ruleset first)")

// tenant is one isolated validation stream: its own ruleset, its own
// engine generation, its own counters and recent-violation ring.
// Nothing is shared across tenants except the server configuration.
//
// The generation lock (mu) is the reload/drain barrier: an ingest
// request holds it for read for its whole body, a ruleset swap or
// engine drain holds it for write. Swaps therefore happen exactly at
// request boundaries — every accepted tuple lands in exactly one
// engine generation, which is what makes hot reload neither drop nor
// double-count tuples: the old generation is drained to completion
// (its rows folded into rowBase) before the next request can start
// the new one.
type tenant struct {
	name string
	cfg  *Config
	base context.Context // engine lifetime context (hard abort)

	mu       sync.RWMutex // generation lock; see type comment
	rules    *pfd.Ruleset
	rawRules []byte // the installed ruleset's JSON — the journaled artifact
	eng      *pfd.StreamEngine
	engStart time.Time
	// ref, when set, is a trusted reference table replayed into every
	// new engine generation before it goes live, so idle eviction or a
	// restart does not lose group consensus. genWarm is the live
	// generation's warm-row count; warm rows are excluded from every
	// row total the tenant reports.
	ref     *pfd.Table
	genWarm int
	// maint tracks per-rule health counters across generations: live
	// violations fold in as they fire and batches advance support, so
	// rules demote without re-mining. Replaced with the ruleset.
	maint *pfd.Maintainer

	// rowBase is the row total of closed engine generations. Written
	// under mu (write-locked).
	rowBase atomic.Int64

	liveViolations atomic.Int64
	retroSignals   atomic.Int64
	// gen counts ruleset installs, 1-based — the journal's ordering key
	// for RulesetInstalled records, restored across restarts.
	gen        atomic.Int64
	reloads    atomic.Int64
	lastActive atomic.Int64 // unixnano of the last ingest or reload
	stopped    atomic.Bool  // server drain: no new generations, ever

	ringMu sync.Mutex
	ring   []pfd.ReportFinding // circular, len == cfg.Ring
	next   int                 // next write slot
	filled int
}

func newTenant(name string, cfg *Config, base context.Context) *tenant {
	t := &tenant{name: name, cfg: cfg, base: base}
	if cfg.Ring > 0 {
		t.ring = make([]pfd.ReportFinding, cfg.Ring)
	}
	t.touch()
	return t
}

func (t *tenant) touch() { t.lastActive.Store(time.Now().UnixNano()) }

// setRuleset installs rules, draining the previous engine generation
// first (under the write lock, so no ingest is in flight). The next
// ingest lazily starts an engine over the new rules. raw is the
// ruleset's JSON form, kept verbatim so the journal and snapshots
// carry exactly what was installed. Returns the new ruleset
// generation, the journal's ordering key.
func (t *tenant) setRuleset(rs *pfd.Ruleset, raw []byte) (replaced bool, gen int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	replaced = t.rules != nil
	t.rules = rs
	t.rawRules = raw
	gen = t.gen.Add(1)
	params := pfd.DefaultParams()
	if rs.Provenance != nil && rs.Provenance.Params != nil {
		params = *rs.Provenance.Params
	}
	t.maint = pfd.NewMaintainer(rs.PFDs, params)
	t.closeEngineLocked()
	if replaced {
		t.reloads.Add(1)
	}
	t.touch()
	return replaced, gen
}

// restore rebuilds the tenant from its durable state at boot: the
// recovered ruleset becomes generation st.Generation, the cumulative
// counters resume where the journal left them, and the snapshot's
// violation ring refills. The maintainer restarts with the recovered
// row count as its evidence base; per-rule violation counters are not
// persisted, so rule health re-demotes from fresh evidence after a
// restart. Called before the tenant is published, so no locking races.
func (t *tenant) restore(st durable.TenantState, rs *pfd.Ruleset) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = rs
	t.rawRules = append([]byte(nil), st.Ruleset...)
	params := pfd.DefaultParams()
	if rs.Provenance != nil && rs.Provenance.Params != nil {
		params = *rs.Provenance.Params
	}
	t.maint = pfd.NewMaintainer(rs.PFDs, params)
	if st.Rows > 0 {
		t.maint.ObserveRows(int(st.Rows))
	}
	t.gen.Store(st.Generation)
	if st.Generation > 1 {
		t.reloads.Store(st.Generation - 1)
	}
	t.rowBase.Store(st.Rows)
	t.liveViolations.Store(st.LiveViolations)
	t.retroSignals.Store(st.RetroSignals)
	for _, f := range st.Ring {
		t.push(f)
	}
	t.touch()
}

// stateSnapshot captures the tenant's durable state for a compaction
// snapshot. ok is false for a tenant with no ruleset — there is
// nothing to make durable. Reads the live engine's cheap row counter,
// not a barrier: compaction runs concurrently with ingest, and any
// in-flight rows it misses are still covered by their own journal
// records (replay folds counters with max).
func (t *tenant) stateSnapshot() (st durable.TenantState, ok bool) {
	t.mu.RLock()
	raw := t.rawRules
	rows := t.rowBase.Load()
	if t.eng != nil {
		rows += int64(t.eng.Rows() - t.genWarm)
	}
	t.mu.RUnlock()
	if len(raw) == 0 {
		return durable.TenantState{}, false
	}
	return durable.TenantState{
		Name:           t.name,
		Generation:     t.gen.Load(),
		Ruleset:        raw,
		Rows:           rows,
		LiveViolations: t.liveViolations.Load(),
		RetroSignals:   t.retroSignals.Load(),
		Ring:           t.recent(0),
	}, true
}

// setRef installs (or clears) the warmup reference. It applies to the
// next engine generation: a running generation already carries its
// consensus and is left alone.
func (t *tenant) setRef(ref *pfd.Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ref = ref
}

// health snapshots the per-rule maintenance counters (nil when no
// ruleset has been loaded).
func (t *tenant) health() []pfd.RuleHealth {
	t.mu.RLock()
	m := t.maint
	t.mu.RUnlock()
	if m == nil {
		return nil
	}
	return m.Health()
}

// ruleset returns the current rules (nil when none loaded).
func (t *tenant) ruleset() *pfd.Ruleset {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rules
}

// closeEngineLocked drains the current engine generation and folds its
// row count — minus the generation's warm-replay rows, which are
// reference data, not ingest — into rowBase. Violations need no
// folding: the handler counted them as they fired, inside the Submit
// that raised them. Caller holds mu for write.
func (t *tenant) closeEngineLocked() {
	if t.eng == nil {
		return
	}
	rep := t.eng.Close()
	t.rowBase.Add(int64(rep.Rows - t.genWarm))
	t.genWarm = 0
	t.eng = nil
}

// startEngineLocked begins a new engine generation over the current
// rules, replaying the warmup reference (when one is set) before the
// generation goes live. Caller holds mu for write and has checked
// t.rules != nil.
func (t *tenant) startEngineLocked() {
	// Findings carry globally monotone row numbers across generations:
	// the handler shifts each engine-local row up by the generation's
	// base (minus the warm-replay rows sitting below the first live
	// tuple). FindingOf subtracts its offset, hence the negation.
	base := int(t.rowBase.Load())
	maint := t.maint
	// Warm-replay suppression mirrors pfd.Validate's WithWarmup: the
	// reference is trusted, its violations are delta-tolerated dirt,
	// not live findings — and they must not charge the maintainer.
	// warm is published before live flips, so handlers that observe
	// live==true see the final offset.
	var live atomic.Bool
	var warm atomic.Int64
	opts := []pfd.StreamOption{
		// Long-lived engines must not retain violations: the service
		// consumes them through the handler into bounded state.
		pfd.WithoutViolationLog(),
		pfd.WithViolationHandler(func(v pfd.StreamViolation) {
			if !live.Load() {
				return
			}
			if !v.NewTuple {
				t.retroSignals.Add(1)
				return
			}
			t.liveViolations.Add(1)
			if maint != nil {
				maint.ObserveViolation(v.PFD)
			}
			t.push(pfd.FindingOf(v, int(warm.Load())-base))
		}),
	}
	t.eng = pfd.NewStreamEngineContext(t.base, t.rules.PFDs, opts...)
	t.genWarm = 0
	if t.ref != nil {
		if err := t.eng.SubmitTable(t.ref); err != nil {
			// A failed replay (hard abort mid-submit) leaves the engine
			// live without consensus — degraded, not broken.
			t.cfg.logf("tenant %s: warmup replay failed: %v", t.name, err)
		} else {
			t.genWarm = t.ref.NumRows()
			warm.Store(int64(t.genWarm))
		}
	}
	live.Store(true)
	t.engStart = time.Now()
	if t.genWarm > 0 {
		t.cfg.logf("tenant %s: engine started (%d rules, warmed with %d reference rows)",
			t.name, len(t.rules.PFDs), t.genWarm)
	} else {
		t.cfg.logf("tenant %s: engine started (%d rules)", t.name, len(t.rules.PFDs))
	}
}

// acquire returns the live engine with the generation lock read-held,
// lazily starting a generation when none is running. The caller MUST
// call release exactly once when its request is done.
func (t *tenant) acquire() (eng *pfd.StreamEngine, release func(), err error) {
	for {
		t.mu.RLock()
		if t.stopped.Load() {
			// The server drained: never start a generation that would
			// outlive the final counters.
			t.mu.RUnlock()
			return nil, nil, pfd.ErrEngineClosed
		}
		if t.rules == nil {
			t.mu.RUnlock()
			return nil, nil, errNoRuleset
		}
		if t.eng != nil {
			return t.eng, t.mu.RUnlock, nil
		}
		t.mu.RUnlock()
		t.mu.Lock()
		if !t.stopped.Load() && t.rules != nil && t.eng == nil {
			t.startEngineLocked()
		}
		t.mu.Unlock()
	}
}

// ingest feeds one request body into the tenant's engine, in body
// order from this single goroutine (so one request's violation
// attribution is deterministic). It returns how many tuples the
// engine accepted — on error, the tuples before the failure are
// already accepted and accounted. When digest is non-nil (durability
// on), every accepted tuple is folded into it, so the journal record
// carries an audit anchor for exactly the tuples the engine took.
func (t *tenant) ingest(ctx context.Context, src pfd.Source, digest *durable.BatchDigest) (accepted int, err error) {
	eng, release, err := t.acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	t.touch()
	defer t.touch()
	for tuple, terr := range src.Tuples(ctx) {
		if terr != nil {
			err = terr
			break
		}
		if serr := eng.Submit(tuple); serr != nil {
			err = serr
			break
		}
		if digest != nil {
			// After Submit, so the digest covers exactly the accepted
			// tuples (Submit extracts values; it never keeps the map).
			digest.Add(tuple)
		}
		accepted++
	}
	// Advance the maintainer's evidence base by what was accepted —
	// reading t.maint is safe here, the generation lock is read-held.
	if accepted > 0 && t.maint != nil {
		t.maint.ObserveRows(accepted)
	}
	return accepted, err
}

// drain closes the running engine generation, keeping the ruleset and
// counters; the next ingest starts fresh (with empty group consensus —
// the documented cost of eviction). Used by idle eviction and tenant
// deletion.
func (t *tenant) drain() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeEngineLocked()
}

// stop is drain plus a terminal mark: after server shutdown no ingest
// may lazily start another generation, or its tuples would be missing
// from the final accounting (and its goroutines would outlive Drain).
// Waiting for the write lock is what lets in-flight ingests finish.
func (t *tenant) stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped.Store(true)
	t.closeEngineLocked()
}

// rows returns the cumulative accepted-tuple count: closed generations
// plus the live engine.
func (t *tenant) rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.rowBase.Load()
	if t.eng != nil {
		n += int64(t.eng.Rows() - t.genWarm)
	}
	return n
}

// push appends a finding to the recent-violations ring. Called from
// the violation handler, inside Submit under the engine lock — it must
// stay cheap and must not call back into the engine.
func (t *tenant) push(f pfd.ReportFinding) {
	t.ringMu.Lock()
	if len(t.ring) > 0 {
		t.ring[t.next] = f
		t.next = (t.next + 1) % len(t.ring)
		if t.filled < len(t.ring) {
			t.filled++
		}
	}
	t.ringMu.Unlock()
}

// recent copies the retained findings in arrival order, oldest first.
// limit <= 0 means all.
func (t *tenant) recent(limit int) []pfd.ReportFinding {
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	n := t.filled
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]pfd.ReportFinding, 0, n)
	// Walk the last n entries ending at t.next-1.
	start := t.next - n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// report assembles the tenant's pfd.Report with its most recent limit
// findings (all retained ones when limit is 0).
func (t *tenant) report(limit int) *pfd.Report {
	r := t.counts()
	r.Violations = t.recent(limit)
	r.Sort()
	return r
}

// counts assembles the tenant's pfd.Report without findings: the
// counters only, with an empty Violations list, leaving the findings
// ring untouched. Every tuple is folded, and its violations counted,
// before its Submit returns, so the counters reflect everything
// acknowledged before the call.
func (t *tenant) counts() *pfd.Report {
	r := pfd.NewReport(t.name)

	t.mu.RLock()
	rows := t.rowBase.Load()
	var engineRows int
	var elapsed time.Duration
	if t.eng != nil {
		engineRows = t.eng.Rows() - t.genWarm // warm-replay rows are reference, not ingest
		rows += int64(engineRows)
		elapsed = time.Since(t.engStart)
	}
	t.mu.RUnlock()

	r.Rows = int(rows)
	r.LiveRows = int(rows) // warm-replay rows are already excluded
	r.LiveViolations = int(t.liveViolations.Load())
	r.RetroSignals = t.retroSignals.Load()
	if elapsed > 0 {
		// Throughput rates the running generation, not the lifetime
		// total: rows from closed generations have no wall time here.
		r.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
		r.TuplesPerSec = float64(engineRows) / elapsed.Seconds()
	}
	return r
}

// tenantStatus is the monitoring snapshot used by the tenant list and
// /metrics.
type tenantStatus struct {
	Name           string  `json:"name"`
	State          string  `json:"state"` // idle | running
	Rules          int     `json:"rules"`
	Rows           int64   `json:"rows"`
	LiveViolations int64   `json:"live_violations"`
	RetroSignals   int64   `json:"retro_signals"`
	Reloads        int64   `json:"reloads"`
	TuplesPerSec   float64 `json:"tuples_per_sec"`
	IdleSec        float64 `json:"idle_sec"`
}

func (t *tenant) status() tenantStatus {
	st := tenantStatus{
		Name:           t.name,
		LiveViolations: t.liveViolations.Load(),
		RetroSignals:   t.retroSignals.Load(),
		Reloads:        t.reloads.Load(),
		IdleSec:        time.Since(time.Unix(0, t.lastActive.Load())).Seconds(),
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.rules != nil {
		st.Rules = len(t.rules.PFDs)
	}
	st.Rows = t.rowBase.Load()
	if t.eng == nil {
		st.State = "idle"
		return st
	}
	st.State = "running"
	st.Rows += int64(t.eng.Rows() - t.genWarm)
	if el := time.Since(t.engStart); el > 0 {
		st.TuplesPerSec = float64(t.eng.Rows()-t.genWarm) / el.Seconds()
	}
	return st
}
