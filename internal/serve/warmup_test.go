package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"pfd"
)

// refTable builds the trusted reference: a clean consensus of eight
// 900xx rows agreeing on "Los Angeles".
func refTable(t *testing.T) *pfd.Table {
	t.Helper()
	var b strings.Builder
	b.WriteString("zip,city\n")
	for i := 0; i < 8; i++ {
		b.WriteString("90001,Los Angeles\n")
	}
	tbl, err := pfd.ReadTable(context.Background(), pfd.FromCSV("ref", strings.NewReader(b.String())))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestWarmupRefSurvivesEviction pins the -ref contract: with a warmup
// reference installed, a lone dissenting tuple is flagged immediately
// (the replayed consensus exists before the first live row), eviction
// drains the engine, and the restarted generation replays the same
// reference — so the dissenter is flagged again instead of silently
// seeding a fresh, consensus-free group. Warm rows never appear in the
// tenant's row accounting.
func TestWarmupRefSurvivesEviction(t *testing.T) {
	s, hs := newTestServer(t, nil)
	putRules(t, hs.URL, "warm", testRules())
	if err := s.SetTenantRef("warm", refTable(t)); err != nil {
		t.Fatal(err)
	}

	dissent := "zip,city\n90002,LA?\n"
	code, body := do(t, http.MethodPost, hs.URL+"/v1/tenants/warm/tuples?format=csv", "text/csv", dissent)
	if code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	rep := getReport(t, hs.URL, "warm", "/report")
	if rep.Rows != 1 {
		t.Fatalf("rows = %d, want 1 (warm rows must not count)", rep.Rows)
	}
	if rep.LiveViolations != 1 {
		t.Fatalf("live violations = %d, want 1 (warm consensus should flag the dissenter)", rep.LiveViolations)
	}

	// Evict: without a ref this would wipe the group consensus.
	tn, err := s.tenant("warm", false)
	if err != nil || tn == nil {
		t.Fatalf("tenant lookup: %v", err)
	}
	tn.drain()

	code, body = do(t, http.MethodPost, hs.URL+"/v1/tenants/warm/tuples?format=csv", "text/csv", dissent)
	if code != http.StatusOK {
		t.Fatalf("ingest after eviction: %d: %s", code, body)
	}
	rep = getReport(t, hs.URL, "warm", "/report")
	if rep.Rows != 2 {
		t.Fatalf("rows after restart = %d, want 2", rep.Rows)
	}
	if rep.LiveViolations != 2 {
		t.Fatalf("live violations after restart = %d, want 2 (replayed consensus lost?)", rep.LiveViolations)
	}
}

// TestWarmupBaselineWithoutRef documents the failure mode -ref exists
// to fix: after eviction a bare engine has no consensus, so the same
// dissenter passes silently.
func TestWarmupBaselineWithoutRef(t *testing.T) {
	s, hs := newTestServer(t, nil)
	putRules(t, hs.URL, "cold", testRules())

	dissent := "zip,city\n90002,LA?\n"
	code, body := do(t, http.MethodPost, hs.URL+"/v1/tenants/cold/tuples?format=csv", "text/csv", dissent)
	if code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	tn, _ := s.tenant("cold", false)
	tn.drain()
	code, body = do(t, http.MethodPost, hs.URL+"/v1/tenants/cold/tuples?format=csv", "text/csv", dissent)
	if code != http.StatusOK {
		t.Fatalf("ingest after eviction: %d: %s", code, body)
	}
	rep := getReport(t, hs.URL, "cold", "/report")
	if rep.LiveViolations != 0 {
		t.Fatalf("live violations = %d, want 0 (a cold engine has no consensus to violate)", rep.LiveViolations)
	}
}

// TestRuleHealthEndpoint checks the per-tenant maintenance surface:
// counters advance with ingest, live violations charge the violated
// rule, and the endpoint 404s for unknown or rule-less tenants.
func TestRuleHealthEndpoint(t *testing.T) {
	s, hs := newTestServer(t, nil)
	putRules(t, hs.URL, "h", testRules())
	if err := s.SetTenantRef("h", refTable(t)); err != nil {
		t.Fatal(err)
	}

	code, body := do(t, http.MethodPost, hs.URL+"/v1/tenants/h/tuples?format=csv", "text/csv", dirtyCSV())
	if code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	code, body = do(t, http.MethodGet, hs.URL+"/v1/tenants/h/health", "", "")
	if code != http.StatusOK {
		t.Fatalf("GET health: %d: %s", code, body)
	}
	var resp struct {
		Tenant string           `json:"tenant"`
		Rows   int64            `json:"rows"`
		Active int              `json:"active"`
		Rules  []pfd.RuleHealth `json:"rules"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("health body: %v: %s", err, body)
	}
	if resp.Tenant != "h" || len(resp.Rules) != 1 {
		t.Fatalf("health = %+v", resp)
	}
	rh := resp.Rules[0]
	if rh.Support == 0 {
		t.Fatal("support did not advance with ingest")
	}
	if rh.Violations != 1 {
		t.Fatalf("violations = %d, want 1 (the dirtyCSV dissenter)", rh.Violations)
	}
	if !rh.Active || resp.Active != 1 {
		t.Fatalf("one tolerated violation must not demote: %+v", resp)
	}

	if code, _ := do(t, http.MethodGet, hs.URL+"/v1/tenants/nope/health", "", ""); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d, want 404", code)
	}
	// A tenant that exists but has no ruleset (created by a failed
	// ingest) also 404s.
	do(t, http.MethodPost, hs.URL+"/v1/tenants/bare/tuples?format=csv", "text/csv", "zip,city\n1,2\n")
	if code, _ := do(t, http.MethodGet, hs.URL+"/v1/tenants/bare/health", "", ""); code != http.StatusNotFound {
		t.Fatalf("rule-less tenant: %d, want 404", code)
	}
}
