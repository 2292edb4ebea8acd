package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pfd/internal/durable"
)

// newDurableServer boots a test server with durability on.
func newDurableServer(t *testing.T, dir string, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.DataDir = dir
		if mut != nil {
			mut(c)
		}
	})
}

// copyDataDir snapshots a data directory mid-run — the crash image: what
// a kill -9 at this instant would leave on disk.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	var walk func(from, to string)
	walk = func(from, to string) {
		ents, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			fp, tp := filepath.Join(from, e.Name()), filepath.Join(to, e.Name())
			if e.IsDir() {
				if err := os.MkdirAll(tp, 0o755); err != nil {
					t.Fatal(err)
				}
				walk(fp, tp)
				continue
			}
			data, err := os.ReadFile(fp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(tp, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk(src, dst)
	return dst
}

// TestDurableGracefulRestartRecoversEverything: drain writes a final
// compaction, so a restarted server recovers rows, violation totals,
// the ruleset (hot-reload generation included), and the violation ring.
func TestDurableGracefulRestartRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newDurableServer(t, dir, nil)
	putRules(t, hs1.URL, "acme", testRules())
	putRules(t, hs1.URL, "acme", testRules()) // hot reload: generation 2
	for i := 0; i < 2; i++ {
		if code, body := do(t, http.MethodPost, hs1.URL+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusOK {
			t.Fatalf("ingest: %d: %s", code, body)
		}
	}
	before := getReport(t, hs1.URL, "acme", "/report")
	ringBefore := getReport(t, hs1.URL, "acme", "/violations")
	s1.Drain()

	_, hs2 := newDurableServer(t, dir, nil)
	after := getReport(t, hs2.URL, "acme", "/report")
	if after.Rows != before.Rows || after.LiveViolations != before.LiveViolations ||
		after.RetroSignals != before.RetroSignals {
		t.Fatalf("recovered rows=%d live=%d retro=%d, want %d/%d/%d",
			after.Rows, after.LiveViolations, after.RetroSignals,
			before.Rows, before.LiveViolations, before.RetroSignals)
	}
	if code, _ := do(t, http.MethodGet, hs2.URL+"/v1/tenants/acme/ruleset", "", ""); code != http.StatusOK {
		t.Fatalf("recovered tenant has no ruleset: %d", code)
	}
	ringAfter := getReport(t, hs2.URL, "acme", "/violations")
	if len(ringAfter.Violations) != len(ringBefore.Violations) {
		t.Fatalf("ring recovered %d findings, want %d", len(ringAfter.Violations), len(ringBefore.Violations))
	}
	// The recovered tenant accepts new work on top of the old totals.
	if code, body := do(t, http.MethodPost, hs2.URL+"/v1/tenants/acme/tuples", "text/csv", cleanCSV()); code != http.StatusOK {
		t.Fatalf("post-recovery ingest: %d: %s", code, body)
	}
	final := getReport(t, hs2.URL, "acme", "/report")
	if got, want := final.Rows, before.Rows+9; got != want {
		t.Fatalf("rows after post-recovery ingest = %d, want %d", got, want)
	}
}

// TestDurableCrashImageRecoversAcknowledged: a copy of the data dir
// taken right after an acknowledged ingest — with no drain, no final
// compaction — must replay to at least everything that was
// acknowledged. The journal-implied counters are exact because every
// ack is journaled after its batch was folded.
func TestDurableCrashImageRecoversAcknowledged(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newDurableServer(t, dir, nil)
	putRules(t, hs1.URL, "acme", testRules())
	if code, body := do(t, http.MethodPost, hs1.URL+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	acked := getReport(t, hs1.URL, "acme", "/report")

	// The crash: freeze the on-disk state as of now. s1 keeps running —
	// its later drain must not touch the copy.
	crashDir := copyDataDir(t, dir)
	s1.Drain()

	_, hs2 := newDurableServer(t, crashDir, nil)
	after := getReport(t, hs2.URL, "acme", "/report")
	if after.Rows != acked.Rows || after.LiveViolations != acked.LiveViolations {
		t.Fatalf("crash image recovered rows=%d live=%d, acknowledged %d/%d",
			after.Rows, after.LiveViolations, acked.Rows, acked.LiveViolations)
	}
	// No compaction ever ran, so the ring is legitimately empty — but
	// the totals above are exact, which is the durability contract.
	if code, _ := do(t, http.MethodGet, hs2.URL+"/v1/tenants/acme/ruleset", "", ""); code != http.StatusOK {
		t.Fatalf("crash image lost the ruleset: %d", code)
	}
}

// TestDurableTornTailTolerated: garbage on the journal tail (the
// mid-append crash signature) must not stop boot — the tail is
// truncated and reported via the recovery metrics.
func TestDurableTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newDurableServer(t, dir, nil)
	putRules(t, hs1.URL, "acme", testRules())
	s1.Drain()

	f, err := os.OpenFile(filepath.Join(dir, "wal.pfdw"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x99, 0x01, 0x02, 0x03, 0x04}); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck // test helper

	_, hs2 := newDurableServer(t, dir, nil)
	if code, _ := do(t, http.MethodGet, hs2.URL+"/v1/tenants/acme/ruleset", "", ""); code != http.StatusOK {
		t.Fatalf("tenant lost to a torn tail: %d", code)
	}
	_, metrics := do(t, http.MethodGet, hs2.URL+"/metrics", "", "")
	if !strings.Contains(string(metrics), "pfd_recovery_truncated_bytes 5") {
		t.Fatalf("metrics do not report the 5 torn bytes:\n%s", metrics)
	}
}

// TestDegradedModeLifecycle is the disk-full drill: writes start
// failing, the server flips read-only with 503 + Retry-After, reads
// and health keep working, and when the disk recovers the reopen loop
// brings writes back without a restart.
func TestDegradedModeLifecycle(t *testing.T) {
	dir := t.TempDir()
	fault := durable.NewFaultFS(nil)
	_, hs := newDurableServer(t, dir, func(c *Config) {
		c.durFS = fault
		c.reopenBase = 2 * time.Millisecond
	})
	putRules(t, hs.URL, "acme", testRules())

	fault.FailWrites(true)

	// The failing ingest: tuples reach the engine, the journal refuses,
	// the ack is withheld — 503, Retry-After, accepted count reported.
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/tenants/acme/tuples", strings.NewReader(dirtyCSV()))
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Error    string `json:"error"`
		Accepted int    `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest under failing journal: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	if ack.Accepted != 9 || !strings.Contains(ack.Error, "not journaled") {
		t.Fatalf("degraded ingest ack = %+v", ack)
	}

	// Now degraded: writes are refused at the door, reads still serve.
	if code, _ := do(t, http.MethodPost, hs.URL+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded: %d, want 503", code)
	}
	if code, _ := do(t, http.MethodPut, hs.URL+"/v1/tenants/acme/ruleset", "application/json", `{"name":"x"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("ruleset PUT while degraded: %d, want 503", code)
	}
	if code, _ := do(t, http.MethodDelete, hs.URL+"/v1/tenants/acme", "", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("DELETE while degraded: %d, want 503", code)
	}
	code, health := do(t, http.MethodGet, hs.URL+"/healthz", "", "")
	if code != http.StatusOK || !strings.Contains(string(health), `"degraded"`) {
		t.Fatalf("healthz while degraded: %d %s", code, health)
	}
	if code, _ := do(t, http.MethodGet, hs.URL+"/v1/tenants/acme/report", "", ""); code != http.StatusOK {
		t.Fatalf("report read while degraded: %d", code)
	}
	_, metrics := do(t, http.MethodGet, hs.URL+"/metrics", "", "")
	if !strings.Contains(string(metrics), "pfd_durability_state 2") {
		t.Fatalf("metrics do not show degraded state:\n%s", metrics)
	}

	// The disk comes back; the reopen loop recovers without a restart.
	fault.FailWrites(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, health := do(t, http.MethodGet, hs.URL+"/healthz", "", "")
		if strings.Contains(string(health), `"active"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still degraded 10s after the fault cleared: %s", health)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body := do(t, http.MethodPost, hs.URL+"/v1/tenants/acme/tuples", "text/csv", cleanCSV()); code != http.StatusOK {
		t.Fatalf("ingest after recovery: %d: %s", code, body)
	}
	_, metrics = do(t, http.MethodGet, hs.URL+"/metrics", "", "")
	if !strings.Contains(string(metrics), "pfd_wal_reopens_total 1") {
		t.Fatalf("metrics do not count the reopen:\n%s", metrics)
	}
}

// TestDurableDeleteStaysDeleted: a journaled delete must not resurrect
// at the next boot, even though earlier journal records and a snapshot
// mention the tenant.
func TestDurableDeleteStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newDurableServer(t, dir, nil)
	putRules(t, hs1.URL, "acme", testRules())
	if code, body := do(t, http.MethodPost, hs1.URL+"/v1/tenants/acme/tuples", "text/csv", dirtyCSV()); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	if code, body := do(t, http.MethodDelete, hs1.URL+"/v1/tenants/acme", "", ""); code != http.StatusOK {
		t.Fatalf("delete: %d: %s", code, body)
	}
	s1.Drain()

	_, hs2 := newDurableServer(t, dir, nil)
	if code, _ := do(t, http.MethodGet, hs2.URL+"/v1/tenants/acme/report", "", ""); code != http.StatusNotFound {
		t.Fatalf("deleted tenant resurrected: %d", code)
	}
}
