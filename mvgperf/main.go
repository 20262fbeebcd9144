// Command mvgperf is the repository's end-to-end benchmark. It drives the
// three ways MVG is used through their production entry points:
//
//	offline  Pipeline.ExtractToStore, OpenFeatureStore + Pipeline.TrainFromStore
//	         and Model.PredictBatch on long series;
//	serve    the real mvgproxy and mvgserve binaries over loopback h2c,
//	         half gRPC PredictProba and half JSON predict_proba, open loop;
//	stream   Model.NewStream, Stream.Push and Stream.PredictAlert on
//	         model-bound sliding windows, closed loop.
//
// Every run checks the program's outputs (an independent visibility-graph
// oracle, bit-identity against in-process calls, a re-reading of the alert
// rule) and prints, as its last line, one JSON object with the operations
// attempted and failed and the metrics: the end-to-end set when untraced,
// the per-layer set when traced. See README.md for the workloads, the
// metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opLog counts operations attempted and failed per operation kind. A
// failed check is a failed operation too, and marks the run incorrect.
type opLog struct {
	mu        sync.Mutex
	attempted map[string]int
	failed    map[string]int
	incorrect bool
}

func newOpLog() *opLog {
	return &opLog{attempted: map[string]int{}, failed: map[string]int{}}
}

// done records one operation of kind; a non-nil err counts it failed.
func (o *opLog) done(kind string, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted[kind]++
	if err != nil {
		o.failed[kind]++
		if o.failed[kind] <= 3 {
			fmt.Fprintf(os.Stderr, "mvgperf: %s failed: %v\n", kind, err)
		}
	}
}

// check records one output check; a failure makes the run incorrect.
func (o *opLog) check(kind string, err error) {
	o.done("check."+kind, err)
	if err != nil {
		o.mu.Lock()
		o.incorrect = true
		o.mu.Unlock()
	}
}

func (o *opLog) totals() (attempted, failed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, n := range o.attempted {
		attempted += n
	}
	for _, n := range o.failed {
		failed += n
	}
	return attempted, failed
}

func (o *opLog) print() {
	o.mu.Lock()
	defer o.mu.Unlock()
	kinds := make([]string, 0, len(o.attempted))
	for k := range o.attempted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("ops %-28s attempted %8d  failed %d\n", k, o.attempted[k], o.failed[k])
	}
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	quick    bool
	tr       *tracer // nil unless --trace 1
	binDir   string  // holds the mvgserve and mvgproxy binaries
	work     string  // private scratch directory, removed at exit
	ops      *opLog
	metrics  map[string]metric
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(*run) error{
	"offline": runOffline,
	"serve":   runServe,
	"stream":  runStream,
}

func main() {
	var (
		workload = flag.String("workload", "", "offline, serve or stream")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
		quick    = flag.Bool("quick", false, "tiny inputs: run every check in seconds")
		repeat   = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's median and quartiles")
		binDir   = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the mvgserve and mvgproxy binaries")
		workRoot = flag.String("workdir", filepath.Join(".bench_build", "work"), "parent of the per-run scratch directory")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "mvgperf: unknown -workload %q (want offline, serve or stream)\n", *workload)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*repeat); err != nil {
			fmt.Fprintln(os.Stderr, "mvgperf:", err)
			os.Exit(1)
		}
		return
	}
	res, err := execute(*workload, *seed, *seconds, *trace == 1, *quick, *binDir, *workRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvgperf:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvgperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its result. An error means the
// run could not complete at all (no result is printed); failed checks and
// operations are reported inside the result instead.
func execute(workload string, seed int64, seconds float64, traced, quick bool, binDir, workRoot string) (*result, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		quick:    quick,
		binDir:   binDir,
		work:     work,
		ops:      newOpLog(),
		metrics:  map[string]metric{},
	}
	if traced {
		r.tr = newTracer()
	}
	fmt.Printf("mvgperf: workload %s seed %d seconds %g traced %v quick %v GOMAXPROCS %d\n",
		workload, seed, seconds, traced, quick, runtime.GOMAXPROCS(0))
	if err := workloads[workload](r); err != nil {
		return nil, err
	}
	if quick {
		if err := selfTest(r); err != nil {
			return nil, err
		}
	}
	if r.tr != nil {
		path := filepath.Join(workRoot, fmt.Sprintf("trace-%s-%d.json", workload, seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Println("mvgperf: spans written to", path)
	}
	r.ops.print()
	attempted, failed := r.ops.totals()
	return &result{
		Correct:   !r.ops.incorrect,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	}, nil
}
