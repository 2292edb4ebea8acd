// Package serve implements pfdserved: a single-binary, multi-tenant
// PFD validation daemon over the streaming engine.
//
// Each tenant is an isolated validation stream — its own ruleset
// (hot-reloadable, loaded through the Ruleset codecs), its own lazily
// started stream.Engine generation, its own counters and retained
// violations. The HTTP surface is versioned under /v1 and speaks the
// versioned pfd.Report envelope on every read path, the same contract
// `pfdstream -json` emits — CLI and service consumers parse one
// format.
//
// Lifecycle (see DESIGN.md "Serving architecture" for the full
// ordering argument):
//
//   - Ingest requests hold their tenant's generation lock for read, so
//     a ruleset swap or drain (write lock) is a request-boundary
//     barrier: every accepted tuple lands in exactly one engine
//     generation, and a generation is drained to completion before
//     the next starts. Hot reload therefore neither drops nor
//     double-counts tuples.
//   - Idle tenants are evicted by a janitor: the engine generation is
//     closed (counters fold into the tenant's cumulative totals, the
//     group state is freed), the ruleset stays, and the next ingest
//     lazily restarts — at the documented cost of an empty group
//     consensus.
//   - Shutdown: SetDraining flips /healthz to 503 and refuses new
//     writes, in-flight ingests finish under their read locks, Drain
//     then closes every engine so the final counters account for
//     every accepted tuple. Read endpoints keep serving the drained
//     state until the process exits.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pfd"
	"pfd/internal/durable"
)

// Server lifecycle states (serverState).
const (
	stateServing int32 = iota
	stateDraining
	stateStopped
)

// tenantNameRE bounds tenant names to a charset that is safe in URLs
// and Prometheus label values without escaping.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Server is the daemon core: the tenant registry and the HTTP API over
// it. Create with New/NewContext, expose via Handler, stop with
// SetDraining + Drain (cmd/pfdserved wires the signal handling).
type Server struct {
	cfg   Config
	base  context.Context // engine lifetime context: cancel = hard abort
	mux   *http.ServeMux
	start time.Time

	mu      sync.RWMutex
	tenants map[string]*tenant

	state       atomic.Int32
	drainOnce   sync.Once
	stopJanitor chan struct{}
	janitorDone chan struct{}

	// Durability (nil/zero when -data-dir is unset). durState is one of
	// durDisabled/durActive/durDegraded; the reopen loop moves degraded
	// back to active. recovery/recoverySec describe what boot replay
	// reconstructed, for the log line and pfd_recovery_* metrics.
	dur         *durable.Store
	durState    atomic.Int32
	compacting  atomic.Bool
	reopenKick  chan struct{}
	stopReopen  chan struct{}
	reopenDone  chan struct{}
	recovery    *durable.Recovery
	recoverySec float64

	reqMu sync.Mutex
	reqs  map[string]int64 // "METHOD pattern\x00code" -> count
}

// New creates a server whose engines live until Drain.
func New(cfg Config) (*Server, error) { return NewContext(context.Background(), cfg) }

// NewContext is New with a hard-abort context threaded into every
// tenant engine: canceling it makes in-flight Submits fail fast — the
// second-SIGTERM path.
// Graceful shutdown never cancels it; it drains instead.
//
// With Config.DataDir set, boot first replays the durable state
// (per-tenant snapshots + the journal tail, tolerating a torn final
// record) into the tenant registry; the error is non-nil when the data
// directory is unusable or holds corrupt (not merely torn) state.
func NewContext(base context.Context, cfg Config) (*Server, error) {
	if base == nil {
		base = context.Background()
	}
	if cfg.Ring < 0 {
		cfg.Ring = 0
	}
	s := &Server{
		cfg:         cfg,
		base:        base,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		tenants:     map[string]*tenant{},
		stopJanitor: make(chan struct{}),
		janitorDone: make(chan struct{}),
		reopenKick:  make(chan struct{}, 1),
		stopReopen:  make(chan struct{}),
		reopenDone:  make(chan struct{}),
		reqs:        map[string]int64{},
	}
	s.routes()
	if cfg.DataDir != "" {
		if err := s.openDurability(); err != nil {
			return nil, err
		}
		go s.reopenLoop()
	} else {
		close(s.reopenDone) // nothing to stop at drain time
	}
	go s.janitor()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenantList)
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}/ruleset", s.handleRulesetPut)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/ruleset", s.handleRulesetGet)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/tuples", s.handleIngest)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/health", s.handleRuleHealth)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/violations", s.handleViolations)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleTenantDelete)
}

// Handler returns the HTTP surface, wrapped with the request counter
// behind /metrics' pfd_http_requests_total.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := s.mux.Handler(r)
		cw := &countingWriter{ResponseWriter: w}
		s.mux.ServeHTTP(cw, r)
		code := cw.code
		if code == 0 {
			code = http.StatusOK
		}
		if pattern == "" {
			pattern = "(none)"
		}
		s.reqMu.Lock()
		s.reqs[pattern+"\x00"+strconv.Itoa(code)]++
		s.reqMu.Unlock()
	})
}

// countingWriter records the status code for the request counter.
type countingWriter struct {
	http.ResponseWriter
	code int
}

func (cw *countingWriter) WriteHeader(code int) {
	if cw.code == 0 {
		cw.code = code
	}
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	if cw.code == 0 {
		cw.code = http.StatusOK
	}
	return cw.ResponseWriter.Write(b)
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.state.Load() != stateServing }

// SetDraining flips the server to draining: /healthz answers 503 and
// ingest/reload requests are refused, while read endpoints stay live.
// The first step of the shutdown ordering — call it before waiting out
// in-flight HTTP requests, so load balancers stop routing here.
func (s *Server) SetDraining() {
	s.state.CompareAndSwap(stateServing, stateDraining)
}

// Drain completes shutdown: it implies SetDraining, stops the janitor,
// then closes every tenant engine — waiting, per tenant, for in-flight
// ingests to release their generation locks, so every accepted tuple
// is accounted in the final counters. Idempotent; read endpoints keep
// working afterwards.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.SetDraining()
		close(s.stopJanitor)
		<-s.janitorDone
		for _, t := range s.snapshotTenants() {
			t.stop()
		}
		// Engines are quiet: a final compaction snapshots exact
		// counters and the violation rings, so a graceful restart
		// recovers everything, ring included.
		s.closeDurability()
		s.state.Store(stateStopped)
		s.cfg.logf("drained: all tenant engines closed")
	})
}

// LoadTenant installs a ruleset for a tenant programmatically — the
// boot-time -rules preload and the test seam. Same semantics as PUT
// /v1/tenants/{tenant}/ruleset.
func (s *Server) LoadTenant(name string, rs *pfd.Ruleset) error {
	if s.Draining() {
		return errors.New("serve: draining")
	}
	if s.durDegraded() {
		return errors.New("serve: degraded (journal unavailable), ruleset install refused")
	}
	if rs == nil || rs.Len() == 0 {
		return errors.New("serve: empty ruleset")
	}
	raw, err := json.Marshal(rs)
	if err != nil {
		return err
	}
	t, err := s.tenant(name, true)
	if err != nil {
		return err
	}
	_, gen := t.setRuleset(rs, raw)
	if err := s.appendDurable(durable.RulesetInstalled(name, gen, raw)); err != nil {
		return fmt.Errorf("serve: ruleset applied but not journaled: %w", err)
	}
	return nil
}

// SetTenantRef installs a warmup reference table for a tenant: every
// new engine generation replays it before going live, so idle eviction
// or a restart does not lose group consensus. The boot-time -ref
// preload and the test seam; applies from the next generation.
func (s *Server) SetTenantRef(name string, ref *pfd.Table) error {
	if s.Draining() {
		return errors.New("serve: draining")
	}
	t, err := s.tenant(name, true)
	if err != nil {
		return err
	}
	t.setRef(ref)
	if ref != nil {
		s.cfg.logf("tenant %s: warmup reference set (%d rows)", name, ref.NumRows())
	}
	return nil
}

// snapshotTenants copies the registry values for lock-free iteration.
func (s *Server) snapshotTenants() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// tenant looks a tenant up, optionally creating it (subject to the
// MaxTenants cap).
func (s *Server) tenant(name string, create bool) (*tenant, error) {
	if !tenantNameRE.MatchString(name) {
		return nil, fmt.Errorf("serve: invalid tenant name %q (want %s)", name, tenantNameRE)
	}
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t != nil || !create {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[name]; t != nil {
		return t, nil
	}
	if s.cfg.MaxTenants > 0 && len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("serve: tenant cap reached (%d)", s.cfg.MaxTenants)
	}
	t = newTenant(name, &s.cfg, s.base)
	s.tenants[name] = t
	return t, nil
}

// janitor evicts idle tenant engines on a quarter-timeout cadence.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	if s.cfg.IdleTimeout <= 0 {
		<-s.stopJanitor
		return
	}
	period := s.cfg.IdleTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.evictIdle(time.Now())
		case <-s.stopJanitor:
			return
		}
	}
}

// evictIdle drains engines idle past IdleTimeout, returning how many
// it evicted. Eviction keeps the ruleset and counters; only the group
// consensus state goes.
func (s *Server) evictIdle(now time.Time) int {
	evicted := 0
	for _, t := range s.snapshotTenants() {
		if now.Sub(time.Unix(0, t.lastActive.Load())) < s.cfg.IdleTimeout {
			continue
		}
		t.mu.Lock()
		// Re-check under the lock: an ingest may have raced in.
		evictedThis := false
		if t.eng != nil && now.Sub(time.Unix(0, t.lastActive.Load())) >= s.cfg.IdleTimeout {
			s.cfg.logf("tenant %s: evicting idle engine", t.name)
			t.closeEngineLocked()
			evicted++
			evictedThis = true
		}
		t.mu.Unlock()
		if evictedThis {
			// Audit record only — replay treats eviction as a no-op (the
			// ruleset and counters survive eviction in memory too).
			if err := s.appendDurable(durable.TenantEvicted(t.name)); err != nil {
				s.cfg.logf("tenant %s: eviction not journaled: %v", t.name, err)
			}
		}
	}
	return evicted
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", retryAfterDraining)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	status, durability := "ok", "disabled"
	switch s.durState.Load() {
	case durActive:
		durability = "active"
	case durDegraded:
		// Degraded is read-only, not down: reads still serve, so the
		// answer stays 200 (load balancers keep routing) while the
		// status tells operators writes are being refused.
		status, durability = "degraded", "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "durability": durability, "tenants": n})
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	statuses := []tenantStatus{}
	for _, t := range s.snapshotTenants() {
		statuses = append(statuses, t.status())
	}
	state := "serving"
	switch s.state.Load() {
	case stateDraining:
		state = "draining"
	case stateStopped:
		state = "stopped"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"state":      state,
		"uptime_sec": time.Since(s.start).Seconds(),
		"tenants":    statuses,
	})
}

// maxRulesetBytes bounds a ruleset upload; rulesets are rule
// artifacts, not data, and 16 MiB of them is already absurd.
const maxRulesetBytes = 16 << 20

func (s *Server) handleRulesetPut(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeUnavailable(w, retryAfterDraining, "draining: ruleset reloads refused")
		return
	}
	if s.durDegraded() {
		writeUnavailable(w, retryAfterDegraded, "degraded: journal unavailable, ruleset reloads refused")
		return
	}
	rs, err := pfd.LoadRuleset(http.MaxBytesReader(w, r.Body, maxRulesetBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ruleset: %v", err)
		return
	}
	if rs.Len() == 0 {
		writeError(w, http.StatusBadRequest, "ruleset holds no rules")
		return
	}
	raw, err := json.Marshal(rs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	name := r.PathValue("tenant")
	t, err := s.tenant(name, true)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	replaced, gen := t.setRuleset(rs, raw)
	if err := s.appendDurable(durable.RulesetInstalled(name, gen, raw)); err != nil {
		// Applied in memory but not journaled: refuse the ack so the
		// client retries once the journal is back — the retried PUT is
		// idempotent and re-journals the same artifact.
		writeUnavailable(w, retryAfterDegraded, "degraded: ruleset applied but not journaled: %v", err)
		return
	}
	code := http.StatusCreated
	if replaced {
		code = http.StatusOK
	}
	s.cfg.logf("tenant %s: ruleset loaded (%d rules, replaced=%v)", name, rs.Len(), replaced)
	writeJSON(w, code, map[string]any{"tenant": name, "rules": rs.Len(), "replaced": replaced})
}

func (s *Server) handleRulesetGet(w http.ResponseWriter, r *http.Request) {
	t, _ := s.tenant(r.PathValue("tenant"), false)
	if t == nil {
		writeError(w, http.StatusNotFound, "no such tenant")
		return
	}
	rs := t.ruleset()
	if rs == nil {
		writeError(w, http.StatusNotFound, "tenant has no ruleset")
		return
	}
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// handlePlan is the shared-evaluation plan debug view: how the
// tenant's ruleset factors into distinct cells and shared LHS groups.
// The description is compiled on every call — a pass over the
// tableaux, cheap next to the HTTP round trip.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	t, _ := s.tenant(r.PathValue("tenant"), false)
	if t == nil {
		writeError(w, http.StatusNotFound, "no such tenant")
		return
	}
	rs := t.ruleset()
	if rs == nil {
		writeError(w, http.StatusNotFound, "tenant has no ruleset")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant": t.name,
		"plan":   rs.Plan(),
	})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeUnavailable(w, retryAfterDraining, "draining: ingest refused")
		return
	}
	if s.durDegraded() {
		// Refuse before touching the engine: a batch we cannot journal
		// must not be accepted at all.
		writeUnavailable(w, retryAfterDegraded, "degraded: journal unavailable, ingest refused")
		return
	}
	t, err := s.tenant(r.PathValue("tenant"), true)
	if err != nil {
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}

	src, err := ingestSource(r)
	if err != nil {
		writeError(w, http.StatusUnsupportedMediaType, "%v", err)
		return
	}
	var digest *durable.BatchDigest
	if s.dur != nil {
		digest = &durable.BatchDigest{}
	}
	accepted, err := t.ingest(r.Context(), src, digest)

	// Write-ahead: journal what the engine accepted before any
	// acknowledgment — including the prefix of a failed body, which is
	// in the engine and reported to the client via "accepted". The
	// engine folded every accepted tuple inside its Submit, so the
	// counters are exact for this batch.
	var rep *pfd.Report
	if s.dur != nil && accepted > 0 {
		rep = t.counts()
		jerr := s.appendDurable(durable.BatchIngested(durable.IngestRecord{
			Tenant:         t.name,
			Digest:         digest.Sum(),
			Accepted:       int64(accepted),
			Rows:           int64(rep.Rows),
			LiveViolations: int64(rep.LiveViolations),
			RetroSignals:   rep.RetroSignals,
		}))
		if jerr != nil {
			// Accepted in memory but not durable: withhold the ack so an
			// at-least-once client retries once the journal is back.
			w.Header().Set("Retry-After", retryAfterDegraded)
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":    fmt.Sprintf("degraded: batch accepted but not journaled: %v", jerr),
				"accepted": accepted,
			})
			return
		}
	}
	if err != nil {
		code := ingestErrorCode(err)
		if code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterDraining)
		}
		writeJSON(w, code, map[string]any{"error": err.Error(), "accepted": accepted})
		return
	}

	if rep == nil {
		rep = t.counts() // counts only; GET /report or /violations lists findings
	}
	rep.Accepted = accepted
	writeJSON(w, http.StatusOK, rep)
}

// ingestSource picks the tuple decoder for an ingest request:
// ?format=csv|jsonl wins, else the Content-Type (text/csv vs NDJSON
// types), defaulting to NDJSON. Both decoders are the shared
// internal/source implementations every CLI uses, so parse semantics
// and error reporting are identical across entry points.
func ingestSource(r *http.Request) (pfd.Source, error) {
	format := r.URL.Query().Get("format")
	if format == "" {
		switch ct := r.Header.Get("Content-Type"); {
		case ct == "", ct == "application/x-ndjson", ct == "application/jsonl",
			ct == "application/json-lines", ct == "application/octet-stream":
			format = "jsonl"
		case ct == "text/csv" || ct == "application/csv":
			format = "csv"
		default:
			return nil, fmt.Errorf("unsupported Content-Type %q (text/csv or application/x-ndjson; or pass ?format=csv|jsonl)", ct)
		}
	}
	switch format {
	case "jsonl", "ndjson":
		return pfd.FromJSONL("ingest", r.Body), nil
	case "csv":
		return pfd.FromCSV("ingest", r.Body), nil
	default:
		return nil, fmt.Errorf("unknown format %q (want csv or jsonl)", format)
	}
}

// ingestErrorCode maps an ingest failure to a status: malformed bodies
// are the client's fault, schema misses are unprocessable, a draining
// or drained engine is retryable-later.
func ingestErrorCode(err error) int {
	var parse *pfd.ParseError
	var missing *pfd.MissingColumnError
	switch {
	case errors.As(err, &parse):
		return http.StatusBadRequest
	case errors.As(err, &missing):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errNoRuleset):
		return http.StatusConflict
	case errors.Is(err, pfd.ErrEngineClosed), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	t, _ := s.tenant(r.PathValue("tenant"), false)
	if t == nil {
		writeError(w, http.StatusNotFound, "no such tenant")
		return
	}
	// Every tuple accepted before this request is counted: the engine
	// folds each tuple before its ingest is acknowledged.
	writeJSON(w, http.StatusOK, t.report(0))
}

// handleRuleHealth serves the per-rule maintenance counters: support
// and violations accumulated across engine generations, confidence,
// and whether the rule still clears its δ-allowance (demoted rules
// stay listed — the counters explain why they fell).
func (s *Server) handleRuleHealth(w http.ResponseWriter, r *http.Request) {
	t, _ := s.tenant(r.PathValue("tenant"), false)
	if t == nil {
		writeError(w, http.StatusNotFound, "no such tenant")
		return
	}
	health := t.health()
	if health == nil {
		writeError(w, http.StatusNotFound, "tenant has no ruleset")
		return
	}
	active := 0
	for _, h := range health {
		if h.Active {
			active++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant": t.name,
		"rows":   t.rows(),
		"active": active,
		"rules":  health,
	})
}

func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	t, _ := s.tenant(r.PathValue("tenant"), false)
	if t == nil {
		writeError(w, http.StatusNotFound, "no such tenant")
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, t.report(limit))
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if s.durDegraded() {
		writeUnavailable(w, retryAfterDegraded, "degraded: journal unavailable, delete refused")
		return
	}
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		writeError(w, http.StatusNotFound, "no such tenant")
		return
	}
	// Write-ahead, like every mutation: journal the delete first, so a
	// crash after this point replays to "tenant gone", never to a
	// half-deleted tenant that resurrects with stale counters.
	if err := s.appendDurable(durable.TenantDeleted(name)); err != nil {
		writeUnavailable(w, retryAfterDegraded, "degraded: delete not journaled: %v", err)
		return
	}
	s.mu.Lock()
	delete(s.tenants, name)
	s.mu.Unlock()
	t.drain() // waits for in-flight ingests, accounts their tuples
	if s.dur != nil {
		if err := s.dur.DeleteTenant(name); err != nil {
			s.cfg.logf("tenant %s: removing snapshot: %v", name, err)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "rows": t.rowBase.Load()})
}

// ---- response helpers ----

// Retry-After hints on 503 responses. Draining means this process is
// going away and a load balancer will have a healthy peer momentarily;
// degraded means the journal's disk needs time (or an operator), so
// clients should back off harder.
const (
	retryAfterDraining = "1"
	retryAfterDegraded = "5"
)

// writeUnavailable is a 503 with a Retry-After hint: every temporary
// refusal (draining, degraded, backpressure) promises the client the
// condition clears, and says when to ask again.
func writeUnavailable(w http.ResponseWriter, retryAfter, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfter)
	writeError(w, http.StatusServiceUnavailable, format, args...)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client hung up; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
