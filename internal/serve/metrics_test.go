package serve

import (
	"net/http"
	"slices"
	"strings"
	"testing"
)

// metricsCore is every series /metrics emits without durability;
// metricsDurable is what -data-dir adds. A new series must be added
// here, with its HELP and TYPE lines, before it can ship.
var (
	metricsCore = []string{
		"pfd_durability_state",
		"pfd_http_requests_total",
		"pfd_server_state",
		"pfd_tenant_engine_state",
		"pfd_tenant_live_violations_total",
		"pfd_tenant_retro_signals_total",
		"pfd_tenant_rows_total",
		"pfd_tenant_rules",
		"pfd_tenant_ruleset_reloads_total",
		"pfd_tenant_tuples_per_sec",
		"pfd_tenants",
		"pfd_up",
		"pfd_uptime_seconds",
	}
	metricsDurable = []string{
		"pfd_recovered_tenants",
		"pfd_recovery_duration_seconds",
		"pfd_recovery_journal_records",
		"pfd_recovery_truncated_bytes",
		"pfd_wal_append_errors_total",
		"pfd_wal_appends_total",
		"pfd_wal_bytes_written_total",
		"pfd_wal_compactions_total",
		"pfd_wal_reopens_total",
		"pfd_wal_size_bytes",
	}
)

// TestMetricsSeriesDocumented requires every emitted series to carry
// exactly one HELP and one TYPE line, every documented series to emit
// a sample, and the set of series to equal the pinned list — with and
// without durability.
func TestMetricsSeriesDocumented(t *testing.T) {
	durable := slices.Concat(metricsCore, metricsDurable)
	slices.Sort(durable)
	for _, tc := range []struct {
		name string
		boot func(t *testing.T) string
		want []string
	}{
		{"memory", func(t *testing.T) string { _, hs := newTestServer(t, nil); return hs.URL }, metricsCore},
		{"durable", func(t *testing.T) string { _, hs := newDurableServer(t, t.TempDir(), nil); return hs.URL }, durable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.boot(t)
			putRules(t, base, "acme", testRules())
			if code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusOK {
				t.Fatalf("ingest: %d: %s", code, body)
			}
			code, body := do(t, http.MethodGet, base+"/metrics", "", "")
			if code != http.StatusOK {
				t.Fatalf("metrics: %d", code)
			}

			help, typ, samples := map[string]int{}, map[string]int{}, map[string]int{}
			for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
				if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
					name, _, _ := strings.Cut(rest, " ")
					help[name]++
					continue
				}
				if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
					name, _, _ := strings.Cut(rest, " ")
					typ[name]++
					continue
				}
				name, _, _ := strings.Cut(line, " ")
				name, _, _ = strings.Cut(name, "{")
				samples[name]++
			}

			var names []string
			for name := range help {
				names = append(names, name)
				if samples[name] == 0 {
					t.Errorf("%s: HELP without a sample", name)
				}
			}
			for name := range samples {
				if help[name] != 1 || typ[name] != 1 {
					t.Errorf("%s: %d HELP and %d TYPE lines, want 1 each", name, help[name], typ[name])
				}
			}
			slices.Sort(names)
			if !slices.Equal(names, tc.want) {
				t.Errorf("series =\n%s\nwant\n%s", strings.Join(names, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
