package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"pfd"
)

// planResponse mirrors handlePlan's envelope.
type planResponse struct {
	Tenant string              `json:"tenant"`
	Plan   pfd.PlanDescription `json:"plan"`
}

// TestPlanEndpoint exercises the debug view end to end: 404s before a
// ruleset exists, then the compiled description of the installed
// ruleset, recompiled after a hot reload.
func TestPlanEndpoint(t *testing.T) {
	_, hs := newTestServer(t, nil)
	base := hs.URL

	if code, _ := do(t, http.MethodGet, base+"/v1/tenants/acme/plan", "", ""); code != http.StatusNotFound {
		t.Fatalf("plan for unknown tenant: %d, want 404", code)
	}

	putRules(t, base, "acme", testRules())
	get := func() planResponse {
		code, body := do(t, http.MethodGet, base+"/v1/tenants/acme/plan", "", "")
		if code != http.StatusOK {
			t.Fatalf("GET plan: %d: %s", code, body)
		}
		var pr planResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("plan response: %v", err)
		}
		return pr
	}

	pr := get()
	if pr.Tenant != "acme" || pr.Plan.Rules != 1 || pr.Plan.Groups != 1 || pr.Plan.DistinctCells != 2 {
		t.Fatalf("plan view = %+v", pr)
	}

	// A hot reload to a two-rule ruleset shows in the next view.
	putRules(t, base, "acme", pfd.NewRuleset("zip",
		pfd.MustParsePFD(`Zip([zip = (\D{3})\D{2}] -> [city = _])`),
		pfd.MustParsePFD(`Zip([zip = (\D{3})\D{2}] -> [state = _])`)))
	pr = get()
	if pr.Plan.Rules != 2 || pr.Plan.Groups != 1 {
		t.Fatalf("plan view after reload = %+v", pr)
	}
}
