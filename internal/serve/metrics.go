package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// handleMetrics renders Prometheus text exposition format (version
// 0.0.4), hand-assembled: the repo takes no dependencies, and the text
// format is simple enough that a client library would be the only
// import it justified. Gauges come from the same tenantStatus
// snapshot the tenant list uses.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	metric := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	metric("pfd_up", "gauge", "1 while the process is alive.")
	fmt.Fprintf(&b, "pfd_up 1\n")

	state := s.state.Load()
	metric("pfd_server_state", "gauge", "Server lifecycle: 0 serving, 1 draining, 2 stopped.")
	fmt.Fprintf(&b, "pfd_server_state %d\n", state)

	metric("pfd_uptime_seconds", "gauge", "Seconds since the server started.")
	fmt.Fprintf(&b, "pfd_uptime_seconds %.3f\n", time.Since(s.start).Seconds())

	statuses := make([]tenantStatus, 0, 8)
	for _, t := range s.snapshotTenants() {
		statuses = append(statuses, t.status())
	}

	metric("pfd_tenants", "gauge", "Number of registered tenants.")
	fmt.Fprintf(&b, "pfd_tenants %d\n", len(statuses))

	perTenant := []struct {
		name, typ, help string
		value           func(st tenantStatus) string
	}{
		{"pfd_tenant_rows_total", "counter", "Tuples accepted by the tenant across all engine generations.",
			func(st tenantStatus) string { return fmt.Sprintf("%d", st.Rows) }},
		{"pfd_tenant_live_violations_total", "counter", "Violations where the incoming tuple is the culprit.",
			func(st tenantStatus) string { return fmt.Sprintf("%d", st.LiveViolations) }},
		{"pfd_tenant_retro_signals_total", "counter", "Violations that retroactively implicate earlier tuples.",
			func(st tenantStatus) string { return fmt.Sprintf("%d", st.RetroSignals) }},
		{"pfd_tenant_ruleset_reloads_total", "counter", "Hot ruleset replacements since the tenant was created.",
			func(st tenantStatus) string { return fmt.Sprintf("%d", st.Reloads) }},
		{"pfd_tenant_engine_state", "gauge", "Engine generation state: 0 idle, 1 running.",
			func(st tenantStatus) string {
				if st.State == "running" {
					return "1"
				}
				return "0"
			}},
		{"pfd_tenant_tuples_per_sec", "gauge", "Throughput of the running engine generation.",
			func(st tenantStatus) string { return fmt.Sprintf("%.3f", st.TuplesPerSec) }},
		{"pfd_tenant_rules", "gauge", "Rules in the tenant's active ruleset.",
			func(st tenantStatus) string { return fmt.Sprintf("%d", st.Rules) }},
	}
	for _, m := range perTenant {
		metric(m.name, m.typ, m.help)
		for _, st := range statuses {
			fmt.Fprintf(&b, "%s{tenant=%q} %s\n", m.name, st.Name, m.value(st))
		}
	}

	// Durability: present even when disabled, so dashboards can key off
	// pfd_durability_state without per-deployment conditionals.
	metric("pfd_durability_state", "gauge", "Durable state: 0 disabled, 1 active (journaling), 2 degraded (read-only).")
	fmt.Fprintf(&b, "pfd_durability_state %d\n", s.durState.Load())
	if s.dur != nil {
		ds := s.dur.Stats()
		metric("pfd_wal_appends_total", "counter", "Records appended to the write-ahead journal.")
		fmt.Fprintf(&b, "pfd_wal_appends_total %d\n", ds.Appends)
		metric("pfd_wal_append_errors_total", "counter", "Journal appends that failed (each flips degraded mode).")
		fmt.Fprintf(&b, "pfd_wal_append_errors_total %d\n", ds.AppendErrors)
		metric("pfd_wal_bytes_written_total", "counter", "Bytes appended to the journal since boot.")
		fmt.Fprintf(&b, "pfd_wal_bytes_written_total %d\n", ds.BytesTotal)
		metric("pfd_wal_size_bytes", "gauge", "Current journal file size; compaction resets it.")
		fmt.Fprintf(&b, "pfd_wal_size_bytes %d\n", ds.JournalBytes)
		metric("pfd_wal_compactions_total", "counter", "Journal compactions into per-tenant snapshots.")
		fmt.Fprintf(&b, "pfd_wal_compactions_total %d\n", ds.Compactions)
		metric("pfd_wal_reopens_total", "counter", "Successful journal reopens after degraded mode.")
		fmt.Fprintf(&b, "pfd_wal_reopens_total %d\n", ds.Reopens)
	}
	if s.recovery != nil {
		metric("pfd_recovery_duration_seconds", "gauge", "Wall time boot spent replaying durable state.")
		fmt.Fprintf(&b, "pfd_recovery_duration_seconds %.6f\n", s.recoverySec)
		metric("pfd_recovered_tenants", "gauge", "Tenants reconstructed from durable state at boot.")
		fmt.Fprintf(&b, "pfd_recovered_tenants %d\n", len(s.recovery.Tenants))
		metric("pfd_recovery_journal_records", "gauge", "Journal records replayed on top of snapshots at boot.")
		fmt.Fprintf(&b, "pfd_recovery_journal_records %d\n", s.recovery.Records)
		metric("pfd_recovery_truncated_bytes", "gauge", "Torn journal bytes dropped at boot (crash tail).")
		fmt.Fprintf(&b, "pfd_recovery_truncated_bytes %d\n", s.recovery.TruncatedBytes)
	}

	metric("pfd_http_requests_total", "counter", "HTTP requests by route pattern and status code.")
	s.reqMu.Lock()
	keys := make([]string, 0, len(s.reqs))
	for k := range s.reqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		route, code, _ := strings.Cut(k, "\x00")
		fmt.Fprintf(&b, "pfd_http_requests_total{route=%q,code=%q} %d\n", route, code, s.reqs[k])
	}
	s.reqMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
