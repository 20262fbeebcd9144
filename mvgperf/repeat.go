package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs this workload n times as child processes, seeds seed,
// seed+1, ..., and prints each metric's median, quartiles and spread —
// the figures the bounds in BENCHMARK.json are set from.
func repeatRuns(n int) error {
	seed, err := strconv.ParseInt(flag.Lookup("seed").Value.String(), 10, 64)
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "seed" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	var failedShare []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(os.Args[0], append(args, "-seed="+strconv.FormatInt(seed+int64(i), 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed+int64(i), err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("run %d: result line: %w", i, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): checks failed", i, seed+int64(i))
		}
		failedShare = append(failedShare, float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "mvgperf: repeat %d/%d done\n", i+1, n)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %12s %12s %12s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		q := quartiles(values[name])
		fmt.Printf("%-28s %12.4f %12.4f %12.4f %8.4f  %s  %v\n", name, q[0], q[1], q[2], (q[2]-q[0])/q[1], units[name], values[name])
	}
	fmt.Printf("failed share per run: %v\n", failedShare)
	return nil
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default "exclusive" method.
func quartiles(xs []float64) [3]float64 {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	var out [3]float64
	ld := len(data)
	if ld < 2 {
		for i := range out {
			out[i] = data[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(ld-1, j))
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
