package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report
// reads: each end-to-end metric's bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each listed workload n times, seeds first..first+n-1
// (or first every time, with sameSeed, to tell the machine's noise from
// the data's), each run a fresh process as the benchmark's users run it,
// and prints
// per metric the median, the quartiles, and the spread (quartile
// distance over the median) against the metric's bound. Bounds are set
// from these numbers: a spread should stay below a third of its bound.
func steadiness(root, self, server, list string, first int64, sameSeed bool, n, seconds int) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, wl := range strings.Split(list, ",") {
		values := map[string][]float64{}
		var speeds []float64
		failedRuns := 0
		for i := 0; i < n; i++ {
			seed := first + int64(i)
			if sameSeed {
				seed = first
			}
			speeds = append(speeds, machineSpeed())
			cmd := exec.Command(self, "-root", root, "-server", server, "-workload", wl,
				"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", wl, seed, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct bool                 `json:"correct"`
				Failed  int                  `json:"failed"`
				Metrics map[string]metricVal `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				failedRuns++
				fmt.Fprint(os.Stderr, stderr.String())
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: machine=%.0fMB/s", wl, seed, speeds[i])
			for _, name := range sortedKeys(res.Metrics) {
				values[name] = append(values[name], res.Metrics[name].Value)
				fmt.Fprintf(os.Stderr, " %s=%.4g", name, res.Metrics[name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		seeds := fmt.Sprintf("seeds %d..%d", first, first+int64(n)-1)
		if sameSeed {
			seeds = fmt.Sprintf("seed %d every run", first)
		}
		fmt.Printf("\nsteadiness: %s, %d runs of %ds (%s), %d with failures\n", wl, n, seconds, seeds, failedRuns)
		fmt.Printf("  %-16s %12s %12s %12s %8s %7s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			vs := values[m.Name]
			if len(vs) < 2 {
				fmt.Printf("  %-16s missing\n", m.Name)
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
			case spread > m.Bound/3:
				verdict = "over a third of the bound"
			}
			fmt.Printf("  %-16s %12.5g %12.5g %12.5g %7.2f%% %6.0f%% %s\n", m.Name, q1, q2, q3, 100*spread, 100*m.Bound, verdict)
		}
		q1, q2, q3 := quartiles(speeds)
		fmt.Printf("  %-16s %12.5g %12.5g %12.5g %7.2f%%         the machine itself: SHA-256 MB/s on one core before each run\n",
			"(machine)", q1, q2, q3, 100*(q3-q1)/q2)
	}
	return nil
}

// machineSpeed is the machine's single-core SHA-256 rate in MB/s, the
// median of five 200 ms windows. It involves none of the program: its
// spread over a steadiness set is how much the machine itself moved.
func machineSpeed() float64 {
	buf := make([]byte, 1<<20)
	rates := make([]float64, 5)
	for i := range rates {
		n, start := 0, time.Now()
		for time.Since(start) < 200*time.Millisecond {
			sha256.Sum256(buf)
			n++
		}
		rates[i] = float64(n) / time.Since(start).Seconds()
	}
	return median(rates)
}
