// streamingingest demonstrates ingest-time cleaning through the v2
// Validate entry point: PFDs mined offline from a trusted batch guard
// a live tuple stream, flagging each dirty record instead of waiting
// for a nightly batch pass. The reference batch is folded in first
// with WithWarmup (so group consensus exists before the first live
// tuple), the live stream arrives through a channel-backed Source, and
// the consistent final report splits warm from live findings.
package main

import (
	"context"
	"fmt"
	"math/rand"

	"pfd"
)

var zones = []struct{ prefix, state string }{
	{"900", "CA"}, {"606", "IL"}, {"100", "NY"}, {"331", "FL"}, {"021", "MA"},
}

func main() {
	// Offline: mine constraints from a clean reference batch.
	rng := rand.New(rand.NewSource(3))
	ref := pfd.NewTable("ZipState", "zip", "state")
	for i := 0; i < 500; i++ {
		z := zones[rng.Intn(len(zones))]
		ref.Append(fmt.Sprintf("%s%02d", z.prefix, rng.Intn(100)), z.state)
	}
	ctx := context.Background()
	disc, err := pfd.Discover(ctx, pfd.FromTable(ref))
	if err != nil {
		panic(err)
	}
	fmt.Printf("mined %d dependencies from the reference batch:\n", len(disc.Dependencies()))
	for d := range disc.All() {
		fmt.Printf("  %s  %s\n", d.Embedded(), d.PFD)
	}

	// Online: the live traffic arrives through a channel — the Source
	// a real ingest pipeline would feed from its consumers. A producer
	// goroutine plays the stream and closes the channel to end the run;
	// canceling ctx would end it early instead.
	stream := []pfd.Tuple{
		{"zip": "90055", "state": "CA"}, // clean
		{"zip": "60612", "state": "IL"}, // clean
		{"zip": "90017", "state": "WA"}, // wrong state for a 900 zip
		{"zip": "33121", "state": "FL"}, // clean
		{"zip": "02134", "state": "mA"}, // case typo
	}
	feed := make(chan pfd.Tuple)
	go func() {
		defer close(feed)
		for _, tuple := range stream {
			feed <- tuple
		}
	}()

	// Validate folds the reference in (violation delivery suppressed
	// during the warm replay), then checks the live stream. The default
	// single producer keeps row ids in stream order, so the report below
	// is deterministic.
	val, err := pfd.Validate(ctx,
		pfd.FromTuples("live", []string{"zip", "state"}, feed),
		disc.PFDs(),
		pfd.WithWarmup(pfd.FromTable(ref)),
	)
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nvalidated %d live tuples (after %d warm rows):\n",
		val.LiveRows(), val.WarmRows())
	rejected := map[int]pfd.StreamViolation{}
	for v := range val.Live() {
		rejected[v.Cell.Row-val.WarmRows()] = v
	}
	for i, tuple := range stream {
		status := "ok"
		if v, bad := rejected[i]; bad {
			status = fmt.Sprintf("REJECTED: %s should be %q (by %s)",
				v.Cell.Col, v.Expected, v.PFD.Embedded())
		}
		fmt.Printf("  tuple %d %v -> %s\n", i, tuple, status)
	}
	fmt.Printf("\nfinal report: %d tuples checked, %d live violations\n",
		val.Rows(), len(rejected))
}
