package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind uint8

const (
	opIngest opKind = iota
	opRead
	opReload
)

// op is one request of a workload's mix.
type op struct {
	kind   opKind
	method string
	path   string
	ctype  string
	body   []byte
	rows   int // tuples in an ingest body
	tenant int
	report bool // a read of the report, which places a barrier
}

// outcome is what the generator observed for one op.
type outcome struct {
	kind     opKind
	report   bool
	tenant   int
	start    time.Time
	lat      time.Duration
	ok       bool
	retried  bool
	accepted int
}

// Trace headers carry the request id and the client span id into the
// in-process handler, so its span joins the request's tree.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// loadGen is the load generator: one process, conns keep-alive
// connections, each in a closed loop — a connection sends its next
// request only once the previous one was acknowledged, the way an
// ingest client waits for the write-ahead ack.
type loadGen struct {
	client *http.Client
	base   string
	conns  int
	tr     *tracer                   // nil: untraced
	mirror func(o op, req, id int64) // traced: replay an acked body through the layers
}

func newLoadGen(base string, conns int) *loadGen {
	return &loadGen{
		base:  base,
		conns: conns,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

// send performs one HTTP exchange and reads the whole response.
func (g *loadGen) send(o op, req, clientSpan int64) (int, []byte, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	r, err := http.NewRequest(o.method, g.base+o.path, body)
	if err != nil {
		return 0, nil, err
	}
	if o.ctype != "" {
		r.Header.Set("Content-Type", o.ctype)
	}
	if g.tr != nil {
		r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(clientSpan, 10))
	}
	resp, err := g.client.Do(r)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// do runs one op. Anything that is not a 2xx, or an ingest ack for
// fewer tuples than were sent, is a failed op. So is a request that got
// no response at all (refused or reset): it is sent once more, so the
// tenant's stream stays in order and the tuples the server took are
// still counted, and the retry is reported, but the op stays failed.
func (g *loadGen) do(o op) outcome {
	req, clientSpan := g.tr.id(), g.tr.id()
	start := time.Now()
	status, data, err := g.send(o, req, clientSpan)
	retried := false
	if err != nil {
		retried = true
		status, data, err = g.send(o, req, clientSpan)
	}
	end := time.Now()
	g.tr.record(clientSpan, 0, req, "client", start, end)
	out := outcome{kind: o.kind, report: o.report, tenant: o.tenant, start: start, lat: end.Sub(start), retried: retried}
	answered := err == nil && (status == http.StatusOK || status == http.StatusCreated)
	if err == nil && o.kind == opIngest {
		// Refusals carry "accepted" too: the prefix of a failed body.
		var ack struct {
			Accepted int `json:"accepted"`
		}
		perr := json.Unmarshal(data, &ack)
		out.accepted = ack.Accepted
		answered = answered && perr == nil && ack.Accepted == o.rows
		if answered && g.mirror != nil {
			g.mirror(o, req, g.tr.id())
		}
	}
	out.ok = answered && !retried
	return out
}

// run drives ops next(first), next(first+1), ... over the generator's
// connections until n ops ran (n > 0) or dur elapsed (dur > 0). It
// returns the outcomes, the wall time, and the next op index.
func (g *loadGen) run(next func(i int) op, first, n int, dur time.Duration) ([]outcome, time.Duration, int) {
	var ctr atomic.Int64
	ctr.Store(int64(first))
	var mu sync.Mutex
	var outs []outcome
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for {
				if dur > 0 && time.Since(start) >= dur {
					break
				}
				i := int(ctr.Add(1) - 1)
				if n > 0 && i >= first+n {
					break
				}
				mine = append(mine, g.do(next(i)))
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	last := int(ctr.Load())
	if n > 0 && last > first+n {
		last = first + n
	}
	return outs, elapsed, last
}

// windowRate is the median over one-second windows of acknowledged
// rows per second. Each request's rows are spread evenly over its own
// interval, so a window's rate does not jump by a whole body when an
// ack lands on either side of its edge; the median keeps a brief stall
// of the machine from moving the figure.
func windowRate(outs []outcome, from time.Time, length time.Duration) float64 {
	n := int(length / time.Second)
	if n < 1 {
		n = 1
	}
	rows := make([]float64, n)
	for _, o := range outs {
		if !o.ok || o.kind != opIngest || o.lat <= 0 {
			continue
		}
		a := o.start.Sub(from).Seconds()
		b := a + o.lat.Seconds()
		per := float64(o.accepted) / (b - a)
		for w := max(int(a), 0); w < n && float64(w) < b; w++ {
			lo, hi := max(a, float64(w)), min(b, float64(w+1))
			if hi > lo {
				rows[w] += per * (hi - lo)
			}
		}
	}
	return median(rows)
}

// tally summarizes outcomes.
type tally struct {
	ingestLat, readLat, reloadLat      []time.Duration
	reportLat, listLat                 []time.Duration // readLat by kind
	ingestFail, readFail, reloadFail   int
	attempted, failed, retried, rowsOK int
	accepted                           map[int]int // tenant -> acknowledged tuples
}

func tallyOf(outs []outcome) tally {
	t := tally{accepted: map[int]int{}}
	for _, o := range outs {
		t.attempted++
		if o.retried {
			t.retried++
		}
		if !o.ok {
			t.failed++
		}
		switch o.kind {
		case opIngest:
			if o.ok {
				t.ingestLat = append(t.ingestLat, o.lat)
				t.rowsOK += o.accepted
			} else {
				t.ingestFail++
			}
			// A failed ingest may still have been accepted in part; the
			// server's count must then exceed the acknowledged one, which
			// the accounting check reports.
			t.accepted[o.tenant] += o.accepted
		case opRead:
			if o.ok {
				t.readLat = append(t.readLat, o.lat)
				if o.report {
					t.reportLat = append(t.reportLat, o.lat)
				} else {
					t.listLat = append(t.listLat, o.lat)
				}
			} else {
				t.readFail++
			}
		case opReload:
			if o.ok {
				t.reloadLat = append(t.reloadLat, o.lat)
			} else {
				t.reloadFail++
			}
		}
	}
	return t
}
