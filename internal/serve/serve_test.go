package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pfd"
	"pfd/internal/datagen"
)

// testRules is the zip→city workload used across the repo's CLI tests:
// a variable PFD whose groups are the first three zip digits.
func testRules() *pfd.Ruleset {
	return pfd.NewRuleset("zip",
		pfd.MustParsePFD(`Zip([zip = (\D{3})\D{2}] -> [city = _])`))
}

// dirtyCSV builds a stream where rows of group 900xx agree on
// "Los Angeles" except one dissenter — exactly one live violation.
func dirtyCSV() string {
	var b strings.Builder
	b.WriteString("zip,city\n")
	for i := 0; i < 8; i++ {
		b.WriteString("90001,Los Angeles\n")
	}
	b.WriteString("90002,LA?\n")
	return b.String()
}

func cleanCSV() string {
	var b strings.Builder
	b.WriteString("zip,city\n")
	for i := 0; i < 9; i++ {
		b.WriteString("60601,Chicago\n")
	}
	return b.String()
}

// newTestServer boots a Server behind httptest. The janitor is
// effectively disabled (1h idle) so tests drive eviction explicitly.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IdleTimeout = time.Hour
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain()
	})
	return s, hs
}

// do issues one request and returns the status and body.
func do(t *testing.T, method, url, contentType, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func putRules(t *testing.T, base, tenant string, rs *pfd.Ruleset) {
	t.Helper()
	body, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, http.MethodPut, base+"/v1/tenants/"+tenant+"/ruleset", "application/json", string(body))
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("PUT ruleset: %d: %s", code, resp)
	}
}

func getReport(t *testing.T, base, tenant, path string) *pfd.Report {
	t.Helper()
	code, body := do(t, http.MethodGet, base+"/v1/tenants/"+tenant+path, "", "")
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, code, body)
	}
	rep, err := pfd.ParseReport(body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return rep
}

// TestTenantLifecycle walks the happy path: load rules, ingest, read
// the report and violations, delete the tenant.
func TestTenantLifecycle(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := hs.URL

	// Ingest before rules is a conflict, not a crash.
	code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV())
	if code != http.StatusConflict {
		t.Fatalf("ingest without rules: %d: %s", code, body)
	}

	putRules(t, base, "acme", testRules())

	code, body = do(t, http.MethodGet, base+"/v1/tenants/acme/ruleset", "", "")
	if code != http.StatusOK {
		t.Fatalf("GET ruleset: %d: %s", code, body)
	}
	if rs, err := pfd.LoadRuleset(bytes.NewReader(body)); err != nil || rs.Len() != 1 {
		t.Fatalf("returned ruleset doesn't round-trip: %v (%s)", err, body)
	}

	code, body = do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV())
	if code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	ack, err := pfd.ParseReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 9 {
		t.Fatalf("accepted = %d, want 9", ack.Accepted)
	}
	// The acknowledgment carries counters only: an empty findings list.
	if ack.Rows != 9 || ack.LiveViolations != 1 || ack.Violations == nil || len(ack.Violations) != 0 {
		t.Fatalf("ack = %+v, want 9 rows, 1 live violation and \"violations\": []", ack)
	}

	rep := getReport(t, base, "acme", "/report")
	if rep.Rows != 9 || rep.Name != "acme" {
		t.Fatalf("report rows=%d name=%q, want 9/acme", rep.Rows, rep.Name)
	}
	if rep.LiveViolations != 1 || len(rep.Violations) != 1 {
		t.Fatalf("violations: %+v", rep)
	}
	if v := rep.Violations[0]; v.Row != 8 || v.Column != "city" || v.Expected != "Los Angeles" {
		t.Fatalf("finding = %+v", v)
	}

	code, body = do(t, http.MethodDelete, base+"/v1/tenants/acme", "", "")
	if code != http.StatusOK {
		t.Fatalf("DELETE: %d: %s", code, body)
	}
	if code, _ = do(t, http.MethodGet, base+"/v1/tenants/acme/report", "", ""); code != http.StatusNotFound {
		t.Fatalf("report after delete: %d, want 404", code)
	}
}

// TestTenantIsolation feeds a dirty stream to tenant A and a clean one
// to tenant B: A's violation must never surface in B, and B's counters
// stay clean.
func TestTenantIsolation(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := hs.URL
	putRules(t, base, "a", testRules())
	putRules(t, base, "b", testRules())

	if code, body := do(t, http.MethodPost, base+"/v1/tenants/a/tuples", "text/csv", dirtyCSV()); code != http.StatusOK {
		t.Fatalf("ingest a: %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPost, base+"/v1/tenants/b/tuples", "text/csv", cleanCSV()); code != http.StatusOK {
		t.Fatalf("ingest b: %d: %s", code, body)
	}

	repA := getReport(t, base, "a", "/report")
	repB := getReport(t, base, "b", "/report")
	if repA.LiveViolations != 1 {
		t.Errorf("tenant a: %d violations, want 1", repA.LiveViolations)
	}
	if repB.LiveViolations != 0 || len(repB.Violations) != 0 {
		t.Errorf("tenant b contaminated: %+v", repB)
	}
	if repA.Rows != 9 || repB.Rows != 9 {
		t.Errorf("rows: a=%d b=%d, want 9/9", repA.Rows, repB.Rows)
	}
}

// TestIngestFormats checks that the same stream as CSV and as NDJSON
// produces identical counts, via Content-Type and via ?format=.
func TestIngestFormats(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := hs.URL

	var ndjson strings.Builder
	for i := 0; i < 8; i++ {
		ndjson.WriteString(`{"zip":"90001","city":"Los Angeles"}` + "\n")
	}
	ndjson.WriteString(`{"zip":"90002","city":"LA?"}` + "\n")

	cases := []struct{ tenant, ct, query, body string }{
		{"csv", "text/csv", "", dirtyCSV()},
		{"csvq", "", "?format=csv", dirtyCSV()},
		{"nd", "application/x-ndjson", "", ndjson.String()},
		{"ndq", "", "?format=jsonl", ndjson.String()},
	}
	for _, c := range cases {
		putRules(t, base, c.tenant, testRules())
		code, body := do(t, http.MethodPost, base+"/v1/tenants/"+c.tenant+"/tuples"+c.query, c.ct, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s: ingest %d: %s", c.tenant, code, body)
		}
		rep := getReport(t, base, c.tenant, "/report")
		if rep.Rows != 9 || rep.LiveViolations != 1 {
			t.Errorf("%s: rows=%d violations=%d, want 9/1", c.tenant, rep.Rows, rep.LiveViolations)
		}
	}

	if code, _ := do(t, http.MethodPost, base+"/v1/tenants/csv/tuples", "application/xml", "<nope/>"); code != http.StatusUnsupportedMediaType {
		t.Errorf("xml ingest: %d, want 415", code)
	}
}

// TestIngestErrors maps failure modes to status codes, and checks the
// accepted-so-far count survives a mid-body parse error.
func TestIngestErrors(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := hs.URL
	putRules(t, base, "acme", testRules())

	// Tuples missing a rule column: 422.
	code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", "zip,state\n90001,CA\n")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("missing column: %d: %s", code, body)
	}

	// Malformed NDJSON after two good tuples: 400, accepted=2.
	nd := `{"zip":"90001","city":"Los Angeles"}` + "\n" +
		`{"zip":"90001","city":"Los Angeles"}` + "\n" +
		`{not json` + "\n"
	code, body = do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "application/x-ndjson", nd)
	if code != http.StatusBadRequest {
		t.Fatalf("bad NDJSON: %d: %s", code, body)
	}
	var errResp struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.Accepted != 2 {
		t.Fatalf("accepted before the parse error = %d (%v): %s", errResp.Accepted, err, body)
	}

	// The two accepted tuples are accounted.
	if rep := getReport(t, base, "acme", "/report"); rep.Rows != 2 {
		t.Fatalf("rows after partial ingest = %d, want 2", rep.Rows)
	}

	// Bad tenant names never reach the registry.
	if code, _ := do(t, http.MethodPost, base+"/v1/tenants/..%2Fetc/tuples", "text/csv", dirtyCSV()); code == http.StatusOK {
		t.Error("path-traversal tenant name accepted")
	}
}

// TestHotReloadNoDropNoDoubleCount hammers one tenant with concurrent
// ingests while rulesets are swapped mid-stream: every accepted tuple
// must be accounted exactly once in the final cumulative row count.
func TestHotReloadNoDropNoDoubleCount(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := hs.URL
	putRules(t, base, "acme", testRules())

	const writers = 8
	const rounds = 6
	accepted := make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV())
				if code != http.StatusOK {
					t.Errorf("writer %d round %d: %d: %s", w, r, code, body)
					return
				}
				var ack pfd.Report
				if err := json.Unmarshal(body, &ack); err != nil {
					t.Error(err)
					return
				}
				accepted[w] += ack.Accepted
			}
		}(w)
	}
	// Swap rulesets concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			putRules(t, base, "acme", testRules())
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	total := 0
	for _, n := range accepted {
		total += n
	}
	if want := writers * rounds * 9; total != want {
		t.Fatalf("accepted %d tuples, want %d", total, want)
	}
	rep := getReport(t, base, "acme", "/report")
	if rep.Rows != total {
		t.Fatalf("final rows = %d, accepted = %d — reload dropped or double-counted", rep.Rows, total)
	}
	if rep.Version != pfd.ReportVersion || rep.Format != pfd.ReportFormat {
		t.Fatalf("report envelope: %+v", rep)
	}
}

// validateBaseline runs the library validation pfdstream uses on the
// same rules and stream, returning the sorted live findings.
func validateBaseline(t *testing.T, rs *pfd.Ruleset, src pfd.Source) []pfd.ReportFinding {
	t.Helper()
	var mu sync.Mutex
	var found []pfd.ReportFinding
	_, err := rs.Validate(context.Background(), src,
		pfd.WithoutViolationLog(),
		pfd.WithViolationHandler(func(v pfd.StreamViolation) {
			if !v.NewTuple {
				return
			}
			mu.Lock()
			found = append(found, pfd.FindingOf(v, 0))
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep := pfd.NewReport("baseline")
	rep.Violations = append(rep.Violations, found...)
	rep.Sort()
	return rep.Violations
}

// TestConcurrentTenantsMatchBaseline is the acceptance bar: eight
// tenants ingest a T13 workload concurrently through HTTP, and every
// tenant's violation set must be identical to what the library
// validation (the engine pfdstream wraps) finds on the same input.
func TestConcurrentTenantsMatchBaseline(t *testing.T) {
	spec, ok := datagen.SpecByID("T13")
	if !ok {
		t.Fatal("no datagen spec T13")
	}
	tbl, _ := spec.Build(600, 7, 0.03)

	disc, err := pfd.Discover(context.Background(), pfd.FromTable(tbl))
	if err != nil {
		t.Fatal(err)
	}
	rules := disc.Ruleset()
	if rules.Len() == 0 {
		t.Fatal("no rules mined from T13")
	}

	// The stream is the table as CSV, the transport pfdstream uses.
	var csv bytes.Buffer
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := validateBaseline(t, rules, pfd.FromTable(tbl))

	_, hs := newTestServer(t, func(c *Config) { c.Ring = 1 << 16 })
	base := hs.URL

	const tenants = 8
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%02d", i)
		putRules(t, base, name, rules)
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			code, body := do(t, http.MethodPost, base+"/v1/tenants/"+name+"/tuples", "text/csv", csv.String())
			if code != http.StatusOK {
				t.Errorf("%s: ingest %d: %s", name, code, body)
			}
		}(name)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%02d", i)
		rep := getReport(t, base, name, "/violations")
		if rep.Rows != tbl.NumRows() {
			t.Errorf("%s: rows = %d, want %d", name, rep.Rows, tbl.NumRows())
		}
		if !reflect.DeepEqual(rep.Violations, want) {
			t.Errorf("%s: violation set diverges from the library baseline: %d vs %d findings",
				name, len(rep.Violations), len(want))
		}
	}
}

// TestIdleEviction drives the janitor's eviction path directly: an
// idle engine is drained (state returns to idle), the counters
// survive, and the next ingest restarts a generation that keeps
// counting from where the old one stopped.
func TestIdleEviction(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) { c.IdleTimeout = 50 * time.Millisecond })
	base := hs.URL
	putRules(t, base, "acme", testRules())
	if code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}

	if n := s.evictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("evictIdle = %d, want 1", n)
	}
	s.mu.RLock()
	ten := s.tenants["acme"]
	s.mu.RUnlock()
	if ten.status().State != "idle" {
		t.Fatalf("state after eviction = %q, want idle", ten.status().State)
	}

	// Counters survive the eviction...
	rep := getReport(t, base, "acme", "/report")
	if rep.Rows != 9 || rep.LiveViolations != 1 {
		t.Fatalf("after eviction: rows=%d violations=%d, want 9/1", rep.Rows, rep.LiveViolations)
	}
	// ...and the next ingest lazily restarts, accumulating.
	if code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", cleanCSV()); code != http.StatusOK {
		t.Fatalf("ingest after eviction: %d: %s", code, body)
	}
	if rep := getReport(t, base, "acme", "/report"); rep.Rows != 18 {
		t.Fatalf("rows after restart = %d, want 18", rep.Rows)
	}
}

// TestMaxTenants enforces the registry cap with 429.
func TestMaxTenants(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) { c.MaxTenants = 2 })
	base := hs.URL
	putRules(t, base, "a", testRules())
	putRules(t, base, "b", testRules())
	body, _ := json.Marshal(testRules())
	code, resp := do(t, http.MethodPut, base+"/v1/tenants/c/ruleset", "application/json", string(body))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third tenant: %d: %s", code, resp)
	}
}

// TestHealthzAndDraining: healthy serving answers 200; a draining
// server answers 503 on /healthz and refuses writes while reads keep
// working on the drained state.
func TestHealthzAndDraining(t *testing.T) {
	s, hs := newTestServer(t, nil)
	base := hs.URL
	putRules(t, base, "acme", testRules())
	if code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}

	if code, _ := do(t, http.MethodGet, base+"/healthz", "", ""); code != http.StatusOK {
		t.Fatalf("healthz while serving: %d", code)
	}

	s.SetDraining()
	if code, _ := do(t, http.MethodGet, base+"/healthz", "", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
	if code, _ := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining: %d, want 503", code)
	}
	body, _ := json.Marshal(testRules())
	if code, _ := do(t, http.MethodPut, base+"/v1/tenants/acme/ruleset", "application/json", string(body)); code != http.StatusServiceUnavailable {
		t.Fatalf("reload while draining: %d, want 503", code)
	}

	s.Drain()
	// Reads still answer after the engines are gone.
	if rep := getReport(t, base, "acme", "/report"); rep.Rows != 9 || rep.LiveViolations != 1 {
		t.Fatalf("post-drain report: rows=%d violations=%d, want 9/1", rep.Rows, rep.LiveViolations)
	}
}

// TestMetricsExposition scrapes /metrics and spot-checks the
// Prometheus text format and the per-tenant series.
func TestMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := hs.URL
	putRules(t, base, "acme", testRules())
	if code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}

	code, body := do(t, http.MethodGet, base+"/metrics", "", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"pfd_up 1",
		"pfd_server_state 0",
		"pfd_tenants 1",
		`pfd_tenant_rows_total{tenant="acme"} 9`,
		`pfd_tenant_live_violations_total{tenant="acme"} 1`,
		`pfd_tenant_rules{tenant="acme"} 1`,
		"# TYPE pfd_http_requests_total counter",
		`pfd_http_requests_total{route="POST /v1/tenants/{tenant}/tuples",code="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestVersionedEnvelopeEverywhere: every read surface answers with a
// parseable versioned Report (ParseReport enforces format+version).
func TestVersionedEnvelopeEverywhere(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := hs.URL
	putRules(t, base, "acme", testRules())
	code, body := do(t, http.MethodPost, base+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV())
	if code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	if _, err := pfd.ParseReport(body); err != nil {
		t.Errorf("ingest response is not a versioned report: %v", err)
	}
	getReport(t, base, "acme", "/report")
	if rep := getReport(t, base, "acme", "/violations?limit=1"); len(rep.Violations) > 1 {
		t.Errorf("limit ignored: %d findings", len(rep.Violations))
	}
}
