package source

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"strconv"
)

// JSONLSource reads one flat JSON object per line, either from a file
// path (re-iterable) or from an io.Reader (single-shot). Non-string
// scalars are stringified; nested values terminate the sequence with a
// *ParseError. An explicit null is treated as an absent key — not as
// "" — so on the streaming path (Validate, the Checker) a null in a
// referenced column surfaces as a *MissingColumnError instead of
// silently folding an empty value into the consensus state. Batch
// entry points materialize the stream into a rectangular table first,
// where absent keys necessarily become "" cells (see Materialize).
type JSONLSource struct {
	backing
}

// NewJSONL wraps a reader of JSONL (one flat object per line). The
// source is single-shot.
func NewJSONL(name string, r io.Reader) *JSONLSource {
	return &JSONLSource{backing{name: name, r: r}}
}

// JSONLFile names a JSONL file. The file is opened at iteration time
// and reopened on each iteration, so the source is re-iterable.
func JSONLFile(name, path string) *JSONLSource {
	return &JSONLSource{backing{name: name, path: path}}
}

// Name returns the relation name.
func (s *JSONLSource) Name() string { return s.name }

// Columns returns nil: JSONL declares no schema, the keys emerge
// during iteration (Materialize unions them, sorted).
func (s *JSONLSource) Columns() []string { return nil }

// Tuples streams the objects as column->value maps.
func (s *JSONLSource) Tuples(ctx context.Context) iter.Seq2[Tuple, error] {
	return func(yield func(Tuple, error) bool) {
		r, cleanup, err := s.open()
		if err != nil {
			yield(nil, err)
			return
		}
		defer cleanup()
		dec := json.NewDecoder(r)
		for rec := 1; ; rec++ {
			if rec%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					yield(nil, err)
					return
				}
			}
			var raw map[string]any
			if err := dec.Decode(&raw); err == io.EOF {
				return
			} else if err != nil {
				yield(nil, &ParseError{Source: s.name, Path: s.path, Record: rec, Err: err})
				return
			}
			tuple := make(Tuple, len(raw))
			for k, v := range raw {
				switch x := v.(type) {
				case string:
					tuple[k] = x
				case float64:
					tuple[k] = strconv.FormatFloat(x, 'f', -1, 64)
				case bool:
					tuple[k] = strconv.FormatBool(x)
				case nil:
					// absent key; see type doc
				default:
					yield(nil, &ParseError{Source: s.name, Path: s.path, Record: rec,
						Err: fmt.Errorf("field %q is nested (%T); flat objects only", k, v)})
					return
				}
			}
			if !yield(tuple, nil) {
				return
			}
		}
	}
}
