package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, one stray sample decides the value.
const minTail = 10

// errThinTail refuses a percentile that has fewer than minTail samples
// beyond it.
var errThinTail = errors.New("fewer than 10 samples beyond the percentile")

// percentile is the nearest-rank p-th percentile of sorted (ascending),
// refused when fewer than minTail samples lie beyond it. Failed
// operations enter sorted as +Inf, so they sit above every percentile.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errThinTail
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, errThinTail
	}
	return sorted[rank-1], nil
}

// percentileLadder is the set of percentiles tailPercentile picks from.
var percentileLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that n
// samples support with at least minTail samples beyond it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range percentileLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= minTail {
			return p, true
		}
	}
	return 0, false
}

// latencies turns durations into ascending milliseconds, with each
// failed operation as +Inf.
func latencies(ds []time.Duration, failed int) []float64 {
	out := make([]float64, 0, len(ds)+failed)
	for _, d := range ds {
		out = append(out, float64(d)/float64(time.Millisecond))
	}
	for i := 0; i < failed; i++ {
		out = append(out, math.Inf(1))
	}
	sort.Float64s(out)
	return out
}

// median of xs (not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, the rule the steadiness report shares
// with whoever re-checks the numbers. Needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return q[0], q[1], q[2]
}

// parseVmHWM extracts the peak resident set size, in KiB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, errors.New("no VmHWM line")
}

// peakRSSMB reads a process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(data)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
