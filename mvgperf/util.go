package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// e2e reports an end-to-end metric. Untraced runs print it in the result;
// traced runs only log it, so the difference between the two runs can be
// read as tracing overhead.
func (r *run) e2e(name string, v float64, unit string) {
	if r.tr != nil {
		fmt.Printf("traced %-22s %14.4f %s\n", name, v, unit)
		return
	}
	fmt.Printf("e2e    %-22s %14.4f %s\n", name, v, unit)
	r.set(name, v, unit)
}

// layer reports a per-layer metric; only traced runs print them in the
// result.
func (r *run) layer(name string, v float64, unit string) {
	fmt.Printf("layer  %-28s %14.4f %s\n", name, v, unit)
	if r.tr != nil {
		r.set(name, v, unit)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations converts to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// p99Min is the fewest samples a phase needs before its p99 is reported:
// ten samples beyond the percentile.
const p99Min = 1000

// latencySummary reports the p50 of ds and, when ds holds at least
// p99Min samples, the p99; otherwise p99 is -1.
func latencySummary(ds []time.Duration) (p50, p99 float64) {
	ms := millis(ds)
	p50 = quantile(ms, 0.5)
	p99 = -1
	if len(ms) >= p99Min {
		p99 = quantile(ms, 0.99)
	}
	return p50, p99
}

// windowedQuantile splits ds, in the order the samples were taken, into
// consecutive windows just long enough to hold ten samples beyond the
// q-quantile (100 for p90, 1000 for p99), and returns the median of the
// windows' q-quantiles (-1 if not one window is full). On a shared
// virtual machine a burst of stolen CPU time lifts the tail of whatever
// window it falls in; the median over windows keeps a few bursts from
// deciding the run's figure, while a tail that is there all along still
// shows.
func windowedQuantile(ds []time.Duration, q float64) float64 {
	window := int(math.Round(10 / (1 - q)))
	var qs []float64
	for lo := 0; lo+window <= len(ds); lo += window {
		qs = append(qs, quantile(millis(ds[lo:lo+window]), q))
	}
	if len(qs) == 0 {
		return -1
	}
	return median(qs)
}

// peakRSSMB reads the peak resident set (VmHWM) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// timedSetups runs setup k times, tearing down all but the last, and
// returns the median set-up time in seconds: set-up is short and one
// sample of it is too noisy to gate on.
func timedSetups[T any](k int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var zero T
	var last T
	secs := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < k-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, median(secs), nil
}

// dirSizeMB sums the sizes of the regular files directly under dir.
func dirSizeMB(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return float64(total) / (1 << 20), nil
}
