package pfd_test

import (
	"bytes"
	"strings"
	"testing"

	"pfd"
)

// FuzzRulesetJSON fuzzes the JSON ruleset codec, the body of the
// daemon's ruleset PUT. Every input either fails with the codec's own
// error, never a panic, or decodes to a ruleset whose marshal →
// unmarshal → marshal is a fixpoint.
func FuzzRulesetJSON(f *testing.F) {
	for _, seed := range []string{
		`{"format":"pfd-ruleset","version":1,"name":"zip","provenance":{"source":"t.csv","rows":12,"tool":"pfd discover","params":{"min_support":5,"delta":0.05,"min_coverage":0.1,"max_lhs":2,"max_gram":4,"disable_generalize":true}},` +
			`"rules":[{"relation":"T","lhs":["zip"],"rhs":"city","tableau":[{"lhs":["(900)\\D{2}"],"rhs":"Los Angeles"},{"lhs":["_"],"rhs":"_"}]}]}`,
		`{"format":"pfd-ruleset","version":1,"rules":[{"relation":"R","lhs":["a","b"],"rhs":"c","tableau":[{"lhs":["(\\LU{2})\\D*","A\\A*"],"rhs":"(\\A+)"}]}]}`,
		`{"format":"pfd-ruleset","version":1,"rules":[]}`,
		`{"format":"pfd-ruleset","version":2,"rules":[]}`,
		`{"format":"other","version":1}`,
		`{"format":"pfd-ruleset","version":1,"rules":[{"relation":"T","lhs":["a"],"rhs":"a","tableau":[{"lhs":["x"],"rhs":"y"}]}]}`,
		`{"format":"pfd-ruleset","version":1,"rules":[{"relation":"T","lhs":["a"],"rhs":"b","tableau":[{"lhs":["(\\D"],"rhs":"_"}]}]}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rs pfd.Ruleset
		if err := rs.UnmarshalJSON(data); err != nil {
			if !strings.HasPrefix(err.Error(), "pfd: ruleset JSON: ") {
				t.Fatalf("error outside the codec's family: %v", err)
			}
			return
		}
		first, err := rs.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded ruleset does not marshal: %v", err)
		}
		var again pfd.Ruleset
		if err := again.UnmarshalJSON(first); err != nil {
			t.Fatalf("marshaled ruleset does not decode: %v\n%s", err, first)
		}
		second, err := again.MarshalJSON()
		if err != nil {
			t.Fatalf("re-decoded ruleset does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal is not a fixpoint:\n first: %s\nsecond: %s", first, second)
		}
	})
}
