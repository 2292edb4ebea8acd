package discovery

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"

	"pfd/internal/index"
	"pfd/internal/kernel"
	"pfd/internal/lattice"
	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// A Dependency is one discovered embedded dependency together with its
// PFD (constant tableau, or a single generalized variable row).
type Dependency struct {
	LHS      []string
	RHS      string
	PFD      *pfd.PFD
	Variable bool    // true when the tableau was generalized (§4.3)
	Coverage float64 // fraction of table rows covered by the tableau LHS
	Support  int     // number of covered rows
}

// Result is the discovery output.
type Result struct {
	Dependencies []*Dependency
	Profiles     []relation.ColumnProfile
	Params       Params
}

// Embedded renders the dependency's embedded FD (pfd.EmbeddedFD).
func (d *Dependency) Embedded() string { return pfd.EmbeddedFD(d.LHS, d.RHS) }

// Progress reports discovery progress at lattice-level boundaries. It
// is delivered to the DiscoverContext callback from the coordinating
// goroutine, so the callback needs no synchronization; canceling the
// run's context from inside the callback stops the walk before the
// next level.
type Progress struct {
	// Level is the lattice level just completed (1-based).
	Level int
	// MaxLevel is the configured MaxLHS bound.
	MaxLevel int
	// Candidates is the cumulative number of candidates evaluated.
	Candidates int
	// Dependencies is the number of dependencies accepted so far.
	Dependencies int
}

// Discover runs the paper's Figure 4 algorithm on t.
func Discover(t *relation.Table, params Params) *Result {
	res, _ := DiscoverContext(context.Background(), t, params, nil)
	return res
}

// DiscoverContext is Discover with cancellation and progress
// reporting: the context is observed between lattice levels and by
// every worker of the candidate-evaluation pool before each candidate,
// so a cancellation returns promptly even mid-level. On cancellation
// it returns the dependencies accepted so far together with ctx.Err().
// onProgress, when non-nil, is invoked after each completed level.
func DiscoverContext(ctx context.Context, t *relation.Table, params Params, onProgress func(Progress)) (*Result, error) {
	params = params.normalize()
	res := &Result{Params: params}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if t.NumRows() == 0 {
		return res, nil
	}
	// Line 1: profile and prune columns. Quantitative columns cannot
	// carry PFDs; constant columns make trivial dependencies.
	res.Profiles = relation.ProfileTable(t)
	var usable []int
	for i, p := range res.Profiles {
		if !p.Quantitative && p.Distinct >= 2 {
			usable = append(usable, i)
		}
	}
	if len(usable) < 2 {
		return res, nil
	}
	usableNames := make([]string, len(usable))
	for i, c := range usable {
		usableNames[i] = t.Cols[c]
	}

	// Lines 5-12: the hash-based inverted pattern index.
	inv := index.Build(t, res.Profiles, usableNames, index.Options{
		MaxGram:      params.MaxGram,
		MinIDs:       params.MinSupport,
		DisablePrune: params.DisableSubstringPrune,
	})

	profByName := make(map[string]relation.ColumnProfile, len(res.Profiles))
	for _, p := range res.Profiles {
		profByName[p.Name] = p
	}
	shared := sharedState{t: t, inv: inv, params: params, profiles: profByName}

	// Lines 13-28: walk the candidate lattice level by level. Candidates
	// within one level are independent — pruning a satisfied LHS only
	// removes supersets, which live in later levels — so each level is
	// evaluated on a worker pool and the variable-row prunes are applied in
	// candidate order at the level barrier. The output is byte-identical
	// to the sequential walk.
	lat := lattice.New(usable)
	evaluated := 0
	for level := 1; level <= params.MaxLHS; level++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		cands := lat.Level(level)
		deps, err := evalCandidates(ctx, shared, cands)
		if err != nil {
			return res, err
		}
		evaluated += len(cands)
		for i, dep := range deps {
			if dep == nil {
				continue
			}
			res.Dependencies = append(res.Dependencies, dep)
			if dep.Variable {
				// Line 25: remove the children of X in the lattice.
				lat.Prune(cands[i].LHS, cands[i].RHS)
			}
		}
		if onProgress != nil {
			onProgress(Progress{
				Level: level, MaxLevel: params.MaxLHS,
				Candidates: evaluated, Dependencies: len(res.Dependencies),
			})
		}
	}
	sort.Slice(res.Dependencies, func(i, j int) bool {
		return res.Dependencies[i].Embedded() < res.Dependencies[j].Embedded()
	})
	return res, nil
}

// numWorkers sizes the candidate-evaluation pool; a var so tests can force
// a multi-worker pool on single-core machines. GOMAXPROCS (not NumCPU)
// respects CPU quotas and user limits.
var numWorkers = runtime.GOMAXPROCS(0)

// evalCandidates evaluates one lattice level's candidates on the
// kernel.ForEach pool, numWorkers wide. Each worker owns a discoverer
// whose scratch (count buffers, draft bitmap) is reused across its
// candidates; results land in candidate order. Cancellation stops the
// level after at most one in-flight candidate per worker.
func evalCandidates(ctx context.Context, shared sharedState, cands []lattice.Candidate) ([]*Dependency, error) {
	deps := make([]*Dependency, len(cands))
	err := kernel.ForEach(ctx, numWorkers, len(cands),
		func() *discoverer { return &discoverer{sharedState: shared} },
		func(d *discoverer, i int) error {
			deps[i] = d.tryCandidate(cands[i].LHS, cands[i].RHS)
			return nil
		})
	return deps, err
}

// sharedState is the read-only context every worker shares.
type sharedState struct {
	t        *relation.Table
	inv      *index.Inverted
	params   Params
	profiles map[string]relation.ColumnProfile
}

// discoverer is one worker's view of the search: the shared read-only
// state plus private scratch reused across candidates.
type discoverer struct {
	sharedState
	// rhsCounts is the CountWithinInto buffer for the per-draft RHS tally.
	rhsCounts []int32
	// countsFree recycles extend's per-recursion-level count buffers.
	countsFree [][]int32
	// order is the current candidate's LHS attributes sorted by pattern
	// count — the draft-extension order. Draft entries align with it.
	order []string
	// cellStamp/cellClass/cellSep memoize buildCell's per-distinct-value
	// classification; a stamp != cellEpoch marks a code unclassified for
	// the current call.
	cellStamp []uint32
	cellClass []uint8
	cellSep   []rune
	cellEpoch uint32
}

func (d *discoverer) profile(col string) relation.ColumnProfile {
	if p, ok := d.profiles[col]; ok {
		return p
	}
	return relation.ColumnProfile{Name: col}
}

func (d *discoverer) getCounts() []int32 {
	if n := len(d.countsFree); n > 0 {
		c := d.countsFree[n-1]
		d.countsFree = d.countsFree[:n-1]
		return c
	}
	return nil
}

func (d *discoverer) putCounts(c []int32) {
	d.countsFree = append(d.countsFree, c)
}

// rowDraft is one tableau row under construction: the chosen index entry
// per LHS attribute, and the rows matching all of them. entries[i] is
// the key chosen for the discoverer's order[i] attribute — a positional
// slice, not a map: drafts are spawned up to maxDrafts times per
// candidate and the LHS is at most a handful of attributes, so a map
// per draft was pure allocator pressure.
type rowDraft struct {
	entries []index.Key
	rows    []int32
}

// entryFor returns the draft's key for the named LHS attribute.
func (d *discoverer) entryFor(dr rowDraft, attr string) index.Key {
	for i, a := range d.order {
		if a == attr {
			return dr.entries[i]
		}
	}
	panic("discovery: draft has no entry for " + attr)
}

// tryCandidate evaluates one embedded candidate X -> B (Figure 4 lines
// 14-28) and returns the dependency or nil.
func (d *discoverer) tryCandidate(lhsIdx []int, rhsIdx int) *Dependency {
	t := d.t
	lhs := make([]string, len(lhsIdx))
	for i, c := range lhsIdx {
		lhs[i] = t.Cols[c]
	}
	rhs := t.Cols[rhsIdx]

	// Line 15: start from the LHS attribute with the most patterns. The
	// order slice is discoverer scratch reused across candidates.
	d.order = append(d.order[:0], lhs...)
	order := d.order
	sort.Slice(order, func(i, j int) bool {
		ni, nj := d.inv.Attrs[order[i]].NumPatterns(), d.inv.Attrs[order[j]].NumPatterns()
		if ni != nj {
			return ni > nj
		}
		return order[i] < order[j]
	})

	// Patterns covering (almost) the whole table are vacuous on either
	// side: as an LHS they condition on nothing, and as an RHS they are a
	// column-format fact, not a dependency — without this guard every
	// X -> B with a universal RHS prefix (e.g. "CHEMBL…") would pass the
	// majority test, the failure mode §4.2 warns about ("we may always be
	// able to find at least one PFD between any two attributes").
	vacuousLimit := int(math.Ceil(float64(t.NumRows()) * (1 - d.params.Delta)))

	start := d.inv.Attrs[order[0]]
	var drafts []rowDraft
	for _, e := range start.Entries {
		if e.Count() >= vacuousLimit {
			continue
		}
		entries := make([]index.Key, 1, len(order))
		entries[0] = e.Key
		base := rowDraft{entries: entries, rows: e.List}
		drafts = append(drafts, d.extend(base, order[1:])...)
		if len(drafts) > maxDrafts {
			break
		}
	}

	// Decision function f per draft, building tableau rows. Drafts whose
	// rows are a subset of an already-accepted draft are redundant: the
	// covering row (found first — drafts arrive in descending support
	// order) already constrains those tuples, and on dirty data the
	// subset's deviating RHS pick is noise-driven (a corrupted value can
	// push a truncated pattern past the threshold inside a small group).
	covered := make([]uint64, kernel.Words(t.NumRows()))
	var rows []pfd.Row
	// acc holds the accepted drafts' row lists: index postings or
	// extend's Filter results, which no later draft writes to.
	var acc [][]int32
	seen := map[string]bool{}
	rhsAttr := d.inv.Attrs[rhs]
	for _, dr := range drafts {
		n := len(dr.rows)
		if n < d.params.MinSupport {
			continue
		}
		// The most specific non-vacuous RHS pattern covering all but the
		// δ-allowance of the draft's rows — the decision function f.
		d.rhsCounts = rhsAttr.CountWithinInto(d.rhsCounts, dr.rows)
		need := int32(n - d.params.allowed(n))
		if need < 1 {
			need = 1
		}
		be := bestEntry(rhsAttr, d.rhsCounts, need, vacuousLimit)
		if be < 0 {
			continue
		}
		rhsKey := rhsAttr.Entries[be].Key
		if slices.ContainsFunc(acc, func(a []int32) bool { return subsetSorted(dr.rows, a) }) {
			continue
		}
		row, key := d.buildRow(lhs, rhs, dr, rhsKey)
		if row == nil || seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, *row)
		acc = append(acc, dr.rows)
		kernel.SetSorted(covered, dr.rows)
	}
	if len(rows) == 0 {
		return nil
	}

	// Line 22: minimum coverage γ (restriction ii).
	support := kernel.PopcountSum(covered)
	coverage := float64(support) / float64(t.NumRows())
	if coverage < d.params.MinCoverage {
		return nil
	}

	constant := pfd.MustNew(t.Name, lhs, rhs, rows...)
	dep := &Dependency{LHS: lhs, RHS: rhs, PFD: constant, Coverage: coverage, Support: support}

	// Lines 23-28: try to generalize the constant tableau to one variable
	// row and validate it on the whole table. The generalized rule's
	// coverage is the LHS match count its validation pass produced.
	if !d.params.DisableGeneralize {
		if g, covered := d.generalize(lhs, rhs, rows); g != nil {
			dep.PFD = g
			dep.Variable = true
			dep.Support = covered
			dep.Coverage = float64(dep.Support) / float64(t.NumRows())
		}
	}
	return dep
}

// subsetSorted reports whether every id of a is in b; both are
// ascending. The merge rejects on length first and then moves b's
// cursor by binary search, so disjoint lists fail on a's first id.
func subsetSorted(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	for _, id := range a {
		j, ok := slices.BinarySearch(b, id)
		if !ok {
			return false
		}
		b = b[j+1:]
	}
	return true
}

// maxDrafts bounds tableau-row combinations per candidate so that
// pathological columns cannot blow up the search.
const maxDrafts = 4096

// extend grows a draft across the remaining LHS attributes, spawning one
// draft per co-occurring pattern with enough support (Example 8 explores
// every country value under each first name). The child draft's entries
// extend the parent's positional slice by one key — a single bounded
// append instead of re-building a map per draft.
func (d *discoverer) extend(base rowDraft, rest []string) []rowDraft {
	if len(rest) == 0 {
		return []rowDraft{base}
	}
	attr := d.inv.Attrs[rest[0]]
	// One recycled count buffer per recursion depth (depth <= MaxLHS).
	counts := attr.CountWithinInto(d.getCounts(), base.rows)
	var out []rowDraft
	for ei := range attr.Entries {
		if int(counts[ei]) < d.params.MinSupport {
			continue
		}
		sub := attr.Filter(base.rows, ei)
		entries := make([]index.Key, len(base.entries)+1, len(d.order))
		copy(entries, base.entries)
		entries[len(base.entries)] = attr.Entries[ei].Key
		next := rowDraft{entries: entries, rows: sub}
		out = append(out, d.extend(next, rest[1:])...)
		if len(out) > maxDrafts {
			break
		}
	}
	d.putCounts(counts)
	return out
}

// bestEntry picks the most specific non-vacuous entry whose within-draft
// count reaches the δ-threshold `need`. Any entry past the threshold
// satisfies the decision function f, and specificity maximizes detection
// power: (CA) must beat (C)\A* even when a corrupted value inflates the
// short prefix's count, otherwise dirty cells sharing one character with
// the consensus escape detection. Entries whose global support reaches
// vacuousLimit describe the whole column and are skipped.
func bestEntry(a *index.Attribute, counts []int32, need int32, vacuousLimit int) int {
	best := -1
	for ei, c := range counts {
		if c < need || a.Entries[ei].Count() >= vacuousLimit {
			continue
		}
		if best < 0 || moreSpecific(&a.Entries[ei], &a.Entries[best]) {
			best = ei
		}
	}
	return best
}

// moreSpecific orders index entries by specificity for RHS tie-breaking.
func moreSpecific(e, cur *index.Entry) bool {
	if len(e.Key.Text) != len(cur.Key.Text) {
		return len(e.Key.Text) > len(cur.Key.Text)
	}
	if e.Count() != cur.Count() {
		return e.Count() < cur.Count()
	}
	return e.Key.Text < cur.Key.Text
}

// buildRow turns a draft into a PFD tableau row; key is a dedupe token.
func (d *discoverer) buildRow(lhs []string, rhs string, dr rowDraft, rhsKey index.Key) (*pfd.Row, string) {
	cells := make([]pfd.Cell, len(lhs))
	var kb strings.Builder
	for i, a := range lhs {
		k := d.entryFor(dr, a)
		cell := d.buildCell(a, k, dr.rows)
		if cell == nil {
			return nil, ""
		}
		cells[i] = *cell
		kb.WriteString(a)
		kb.WriteByte('=')
		kb.WriteString(cell.String())
		kb.WriteByte(';')
	}
	rhsCell := d.buildCell(rhs, rhsKey, dr.rows)
	if rhsCell == nil {
		return nil, ""
	}
	kb.WriteString("->")
	kb.WriteString(rhsCell.String())
	return &pfd.Row{LHS: cells, RHS: *rhsCell}, kb.String()
}

// buildCell constructs the constrained pattern for a partial value
// (u, pos) of column col, inspecting the covered rows to decide whether u
// is the whole value (exact constant), a separator-terminated token, or a
// plain anchored prefix:
//
//	whole value         -> (u)              e.g. (Los Angeles)
//	token + separator   -> \A{pos}(u sep)\A*  e.g. (John\ )\A*
//	anchored prefix     -> \A{pos}(u)\A*      e.g. (900)\D*... rendered (900)\A*
func (d *discoverer) buildCell(col string, k index.Key, rows []int32) *pfd.Cell {
	ci := d.t.MustCol(col)
	prof := d.profile(col)
	ru := []rune(k.Text)
	// Classify the rows by δ-majority rather than unanimity: up to a δ
	// fraction of the draft's rows may be dirty (they don't carry the key
	// at all, and carry trailing junk like "CA-4"), and the cell must be
	// built from the consensus shape so that the outliers turn into
	// violations instead of forcing a looser pattern.
	//
	// The shape of a cell depends only on the distinct value, so the
	// []rune conversion and key comparison run once per dictionary code
	// (memoized in discoverer scratch) and the row pass replays the
	// cached class — same counts, same sep-ordering semantics, no
	// per-row rune work.
	const (
		classUnknown = iota
		classAbsent  // value does not carry the key: dirty outlier
		classExact   // key ends exactly at the value's end
		classSep     // key followed by a separator rune (in cellSep)
		classOther   // key followed by a non-separator rune
	)
	dict, codes := d.t.Dict(ci), d.t.Codes(ci)
	if len(d.cellStamp) < len(dict) {
		d.cellStamp = make([]uint32, len(dict))
		d.cellClass = make([]uint8, len(dict))
		d.cellSep = make([]rune, len(dict))
	}
	d.cellEpoch++
	if d.cellEpoch == 0 { // stamp wrap: invalidate everything
		clear(d.cellStamp)
		d.cellEpoch = 1
	}
	present, endExact, sepCount := 0, 0, 0
	sep := rune(0)
	for _, r := range rows {
		code := codes[r]
		if d.cellStamp[code] != d.cellEpoch {
			d.cellStamp[code] = d.cellEpoch
			v := []rune(dict[code])
			end := k.Pos + len(ru)
			switch {
			case len(v) < end || !runesEqual(v[k.Pos:end], ru):
				d.cellClass[code] = classAbsent
			case end == len(v):
				d.cellClass[code] = classExact
			case relation.IsSeparator(v[end]):
				d.cellClass[code] = classSep
				d.cellSep[code] = v[end]
			default:
				d.cellClass[code] = classOther
			}
		}
		switch d.cellClass[code] {
		case classAbsent:
			continue // dirty outlier; tolerated below
		case classExact:
			present++
			endExact++
		case classSep:
			present++
			if next := d.cellSep[code]; sep == 0 || sep == next {
				sep = next
				sepCount++
			}
		default:
			present++
		}
	}
	if present == 0 {
		return nil
	}
	majority := present - d.params.allowed(present)
	if majority < 1 {
		majority = 1
	}

	var toks []pattern.Token
	if k.Pos > 0 {
		toks = append(toks, pattern.Exactly(pattern.Any, k.Pos))
	}
	lo := len(toks)
	for _, r := range ru {
		toks = append(toks, pattern.Lit(r))
	}
	switch {
	case endExact >= majority && k.Pos == 0:
		return cellOf(pattern.NewConstrained(toks, lo, len(toks)))
	case sepCount >= majority && prof.Mode == relation.ModeTokenize && sep != 0:
		toks = append(toks, pattern.Lit(sep))
		hi := len(toks)
		toks = append(toks, pattern.Star(pattern.Any))
		return cellOf(pattern.NewConstrained(toks, lo, hi))
	default:
		hi := len(toks)
		toks = append(toks, pattern.Star(pattern.Any))
		return cellOf(pattern.NewConstrained(toks, lo, hi))
	}
}

func cellOf(p *pattern.Pattern) *pfd.Cell {
	c := pfd.Pat(p)
	return &c
}

func runesEqual(a, b []rune) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
