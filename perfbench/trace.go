package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// off: every method is a no-op, so untraced phases pay nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent recorded later.
func (tr *tracer) id() int64 {
	if tr == nil {
		return 0
	}
	return tr.ids.Add(1)
}

// record stores a finished span under a reserved id.
func (tr *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if tr == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// add reserves an id and records the span in one step (leaf spans).
func (tr *tracer) add(parent, req int64, name string, start, end time.Time) int64 {
	id := tr.id()
	tr.record(id, parent, req, name, start, end)
	return id
}

// snapshot copies the recorded spans.
func (tr *tracer) snapshot() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// writeFile writes the spans as JSON lines.
func (tr *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := writeSpans(w, tr.snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (concurrent calls under one parent) are counted once, as the union of
// their intervals clipped to the parent's.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// splitRow is one line of a layer-split table.
type splitRow struct {
	layer   string
	per     float64 // self time per unit, in the table's unit
	offPath bool    // work the result does not wait for: listed, not totaled
}

// printSplit prints a layer-split table: each layer's self time per
// unit of work and its share of the total.
func printSplit(w io.Writer, title, unit string, rows []splitRow) {
	var total float64
	for _, r := range rows {
		if !r.offPath {
			total += r.per
		}
	}
	fmt.Fprintf(w, "\nlayer split: %s\n", title)
	fmt.Fprintf(w, "  %-36s %14s %7s\n", "layer (self time)", unit, "share")
	for _, r := range rows {
		if r.offPath {
			fmt.Fprintf(w, "  %-36s %14.2f %7s\n", r.layer, r.per, "off ack")
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * r.per / total
		}
		fmt.Fprintf(w, "  %-36s %14.2f %6.1f%%\n", r.layer, r.per, share)
	}
	fmt.Fprintf(w, "  %-36s %14.2f %6.1f%%\n", "total", total, 100.0)
}
