package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mvg"
	"mvg/internal/alert"
	"mvg/internal/buf"
	"mvg/internal/bulk"
	"mvg/internal/core"
	"mvg/internal/graph"
	"mvg/internal/grids"
	"mvg/internal/ml/modelsel"
	"mvg/internal/motif"
	"mvg/internal/parallel"
	servecore "mvg/internal/serve/core"
	"mvg/internal/timeseries"
	"mvg/internal/visibility"
)

// layerInputs is what the per-layer probes of a traced run work on: the
// workload's own pipeline, model and series, so each layer's figures are
// taken on the inputs where the workload meets it.
type layerInputs struct {
	pipe      *mvg.Pipeline
	model     *mvg.Model
	modelPath string // saved model file; empty = save one for the probe
	fleet     *fleet // running fleet; nil = boot one for the probe
	cfg       mvg.Config
	prep      prepConfig
	train     [][]float64
	labels    []string
	eval      [][]float64 // a sample of the series the workload classifies
}

// probeLayers runs every per-layer probe and reports its metrics.
func probeLayers(r *run, in layerInputs) error {
	ctx := context.Background()
	for _, probe := range []func(context.Context, *run, layerInputs) error{
		probeStages, probePush, probeSpeedup, probeStoreAndFit, probeStream, probeServe,
	} {
		if err := probe(ctx, r, in); err != nil {
			return err
		}
	}
	return nil
}

// replayScratch is the staged replay's own set of the building blocks
// Extractor.ExtractWith uses internally.
type replayScratch struct {
	pre     []float64
	pyramid [][]float64
	vis     visibility.Builder
	g       graph.Graph
	ctr     motif.Counter
	cores   graph.CoreScratch
}

// Stage indices of the replay's clock.
const (
	stPre = iota
	stVG
	stHVG
	stCSR
	stMotif
	stKCore
	stAssort
	numStages
)

var stageMetrics = [numStages]string{
	"timeseries.preprocess_us", "visibility.vg_build_us", "visibility.hvg_build_us",
	"graph.csr_build_us", "motif.count_us", "graph.kcore_us", "graph.assortativity_us",
}

// replay is Algorithm 1 run stage by stage through the public building
// blocks, timing each stage. It returns the feature row and the number
// of edges built.
func (rs *replayScratch) replay(ext *core.Extractor, prep prepConfig, series []float64, clock *[numStages]time.Duration) ([]float64, int, error) {
	t0 := time.Now()
	rs.pre = buf.Grow(rs.pre, len(series))
	t := rs.pre
	if prep.noZNorm {
		copy(t, series)
	} else {
		timeseries.ZNormalizeInto(t, series)
	}
	if !prep.noDetrend {
		timeseries.DetrendInto(t, t)
	}
	scales := [][]float64{t}
	for level, cur := 0, t; len(cur)/2 > prep.tau; level++ {
		if level == len(rs.pyramid) {
			rs.pyramid = append(rs.pyramid, nil)
		}
		next, err := timeseries.HalveInto(rs.pyramid[level], cur)
		if err != nil {
			return nil, 0, err
		}
		rs.pyramid[level] = next
		scales = append(scales, next)
		cur = next
	}
	clock[stPre] += time.Since(t0)

	row := make([]float64, 0, ext.NumFeatures(len(series)))
	edgesTotal := 0
	for _, s := range scales {
		for _, hvg := range []bool{false, true} {
			t0 := time.Now()
			var edges [][2]int
			var err error
			if hvg {
				edges, err = rs.vis.HVGEdges(s)
			} else {
				edges, err = rs.vis.VGEdges(s)
			}
			if err != nil {
				return nil, 0, err
			}
			t1 := time.Now()
			if hvg {
				clock[stHVG] += t1.Sub(t0)
			} else {
				clock[stVG] += t1.Sub(t0)
			}
			edgesTotal += len(edges)
			rs.g.BuildUnchecked(len(s), edges)
			t2 := time.Now()
			clock[stCSR] += t2.Sub(t1)
			counts := rs.ctr.Count(&rs.g)
			t3 := time.Now()
			clock[stMotif] += t3.Sub(t2)
			row = counts.AppendProbabilities(row)
			assort, _ := rs.g.Assortativity()
			t4 := time.Now()
			clock[stAssort] += t4.Sub(t3)
			kcore := rs.g.DegeneracyScratch(&rs.cores)
			clock[stKCore] += time.Since(t4)
			maxDeg, minDeg, meanDeg := rs.g.DegreeStats()
			row = append(row, rs.g.Density(), assort, float64(kcore), float64(maxDeg), float64(minDeg), meanDeg)
		}
	}
	return row, edgesTotal, nil
}

// probeStages replays extraction stage by stage on the sample, checks the
// replayed rows against Extractor.ExtractWith bit for bit, and reports
// each stage's mean self time next to ExtractWith's mean time on one
// worker. What the stages do not cover is core.unattributed_us.
func probeStages(ctx context.Context, r *run, in layerInputs) error {
	ext, err := core.NewExtractor(core.Options{NoDetrend: in.cfg.NoDetrend, NoZNormalize: in.cfg.NoZNormalize})
	if err != nil {
		return err
	}
	sc := core.NewScratch()
	rs := &replayScratch{}
	var clock, warm [numStages]time.Duration
	// Warm both paths' buffers first.
	if _, err := ext.ExtractWith(sc, in.eval[0]); err != nil {
		return err
	}
	if _, _, err := rs.replay(ext, in.prep, in.eval[0], &warm); err != nil {
		return err
	}
	var extractTotal time.Duration
	edges := 0
	parent := r.tr.begin("probe.stages", 0)
	for _, s := range in.eval {
		sp := r.tr.begin("core.Extractor.ExtractWith", parent)
		t0 := time.Now()
		want, err := ext.ExtractWith(sc, s)
		extractTotal += time.Since(t0)
		r.tr.end(sp, 1)
		if err != nil {
			return err
		}
		sp = r.tr.begin("core.replay", parent)
		got, e, err := rs.replay(ext, in.prep, s, &clock)
		r.tr.end(sp, 1)
		if err != nil {
			return err
		}
		edges += e
		r.ops.check("replay_identical", sameBits(got, want))
	}
	r.tr.end(parent, len(in.eval))
	oracle, err := oracleEdges(in.prep, in.eval[0])
	if err == nil {
		var one [numStages]time.Duration
		_, e, rerr := rs.replay(ext, in.prep, in.eval[0], &one)
		if err = rerr; err == nil && e != oracle {
			err = fmt.Errorf("replay built %d edges, oracle %d", e, oracle)
		}
	}
	r.ops.check("oracle_edges", err)

	n := float64(len(in.eval))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	attributed := 0.0
	for i, name := range stageMetrics {
		r.layer(name, us(clock[i]), "us")
		attributed += us(clock[i])
	}
	r.layer("graph.edges_per_series", float64(edges)/n, "edges")
	r.layer("core.extract_us", us(extractTotal), "us")
	r.layer("core.unattributed_us", us(extractTotal)-attributed, "us")
	return nil
}

// probePush times visibility.Incremental.Push, the ring-graph
// append/evict behind Stream.Push, over the sample's samples.
func probePush(ctx context.Context, r *run, in layerInputs) error {
	w := len(in.eval[0])
	inc, err := visibility.NewIncremental(w, true, true)
	if err != nil {
		return err
	}
	pushes := 0
	sp := r.tr.begin("visibility.Incremental.Push", 0)
	t0 := time.Now()
	for _, s := range in.eval {
		for _, x := range s {
			if err := inc.Push(x); err != nil {
				return err
			}
		}
		pushes += len(s)
	}
	d := time.Since(t0)
	r.tr.end(sp, pushes)
	r.layer("visibility.push_ns", float64(d)/float64(pushes), "ns")
	return nil
}

// probeSpeedup extracts the same batch on the pool at one and at two
// workers, alternating, and reports the ratio of median times.
func probeSpeedup(ctx context.Context, r *run, in layerInputs) error {
	defer in.pipe.SetWorkers(benchWorkers)
	var secs [2][]float64
	for rep := 0; rep < 3; rep++ {
		for i, w := range []int{1, 2} {
			in.pipe.SetWorkers(w)
			sp := r.tr.begin(fmt.Sprintf("mvg.Pipeline.Extract.workers=%d", w), 0)
			t0 := time.Now()
			_, err := in.pipe.Extract(ctx, in.eval)
			secs[i] = append(secs[i], time.Since(t0).Seconds())
			r.tr.end(sp, len(in.eval))
			if err != nil {
				return err
			}
		}
	}
	r.layer("parallel.speedup", median(secs[0])/median(secs[1]), "x")
	return nil
}

// probeStoreAndFit writes the training set into a store through
// bulk.Run, with the extraction callback timed as a child span so the
// runner's own (write) time is its self time; then reads the store back
// and fits and runs the classifier on it.
func probeStoreAndFit(ctx context.Context, r *run, in layerInputs) error {
	dirA := filepath.Join(r.work, "probe-store-a")
	dirB := filepath.Join(r.work, "probe-store-b")
	if _, err := in.pipe.ExtractToStore(ctx, mvg.SliceSource(in.train, in.labels, 64), mvg.StoreOptions{Dir: dirA, Dataset: "probe"}); err != nil {
		return err
	}
	a, err := mvg.OpenFeatureStore(dirA)
	if err != nil {
		return err
	}
	var extract time.Duration
	parent := r.tr.begin("bulk.Run", 0)
	t0 := time.Now()
	_, err = bulk.Run(ctx, mvg.SliceSource(in.train, in.labels, 64), bulk.RunOptions{
		Dir: dirB, Dataset: "probe", ConfigJSON: a.ConfigJSON(), FeatureNames: in.pipe.FeatureNames,
		Extract: func(ctx context.Context, series [][]float64) ([][]float64, error) {
			sp := r.tr.begin("mvg.Pipeline.Extract", parent)
			t0 := time.Now()
			rows, err := in.pipe.Extract(ctx, series)
			extract += time.Since(t0)
			r.tr.end(sp, len(series))
			return rows, err
		},
	})
	total := time.Since(t0)
	r.tr.end(parent, len(in.train))
	if err != nil {
		return err
	}
	mb, err := dirSizeMB(dirB)
	if err != nil {
		return err
	}
	r.layer("bulk.store_mb", mb, "MB")
	r.layer("bulk.write_mb_per_s", mb/(total-extract).Seconds(), "MB/s")

	sp := r.tr.begin("mvg.FeatureStore.Matrix", 0)
	t0 = time.Now()
	b, err := mvg.OpenFeatureStore(dirB)
	var x [][]float64
	var y []int
	if err == nil {
		x, y, err = b.Matrix()
	}
	read := time.Since(t0)
	r.tr.end(sp, len(in.train))
	if err != nil {
		return err
	}
	r.layer("bulk.read_s", read.Seconds(), "s")

	// The classifier layer on its own: the same model selection
	// Pipeline.TrainFromStore runs for the default classifier (XGBoost,
	// quick grid, 3 folds, the pipeline's seed) on the store's matrix,
	// then its PredictProba on the sample's feature rows.
	pool := parallel.NewPool(func() struct{} { return struct{}{} })
	defer pool.Close()
	runner := parallel.RunnerFunc(func(ctx context.Context, n int, fn func(int) error) error {
		return pool.Run(ctx, benchWorkers, n, fn)
	})
	sp = r.tr.begin("modelsel.Best", 0)
	t0 = time.Now()
	clf, _, err := modelsel.Best(ctx, runner, grids.XGB(grids.Quick, in.cfg.Seed), x, y, numClasses, 3, false, in.cfg.Seed)
	fit := time.Since(t0)
	r.tr.end(sp, len(x))
	if err != nil {
		return err
	}
	r.layer("ml.fit_s", fit.Seconds(), "s")
	evalX, err := in.pipe.Extract(ctx, in.eval)
	if err != nil {
		return err
	}
	var classify []float64
	for rep := 0; rep < 15; rep++ {
		sp := r.tr.begin("ml.Classifier.PredictProba", 0)
		t0 := time.Now()
		_, err := clf.PredictProba(evalX)
		classify = append(classify, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(evalX)))
		r.tr.end(sp, len(evalX))
		if err != nil {
			return err
		}
	}
	r.layer("ml.classify_us", median(classify), "us")
	return nil
}

// probeStream times a model-bound stream over the sample: Features and
// PredictAlert on every window; the median of PredictAlert minus Features
// is the cost of classification, drift and the trigger. The alert
// evaluator is then timed alone on the recorded points.
func probeStream(ctx context.Context, r *run, in layerInputs) error {
	const hop, maxHops = 16, 200
	s, err := in.model.NewStream(hop)
	if err == nil {
		err = s.SetAlerts(streamTrigger)
	}
	if err != nil {
		return err
	}
	var feats, diff []float64 // µs per call
	var points []alert.Point
	hops := 0
	parent := r.tr.begin("probe.stream", 0)
outer:
	for _, series := range in.eval {
		for _, x := range series {
			ready, err := s.Push(x)
			if err != nil {
				return err
			}
			if !ready {
				continue
			}
			hops++
			// Both calls on every window, in alternating order, so the
			// paired difference cancels what varies between windows.
			var f, pa float64
			var pt mvg.StreamPoint
			for k := 0; k < 2; k++ {
				features := (k == 0) == (hops%2 == 0)
				name := "mvg.Stream.PredictAlert"
				if features {
					name = "mvg.Stream.Features"
				}
				sp := r.tr.begin(name, parent)
				t0 := time.Now()
				if features {
					_, err = s.Features()
					f = float64(time.Since(t0)) / float64(time.Microsecond)
				} else {
					pt, err = s.PredictAlert(ctx)
					pa = float64(time.Since(t0)) / float64(time.Microsecond)
				}
				r.tr.end(sp, 1)
				if err != nil {
					return err
				}
			}
			feats = append(feats, f)
			diff = append(diff, pa-f)
			points = append(points, alert.Point{Sample: pt.Sample, Class: pt.Class, Proba: pt.Proba, Drift: pt.Drift, HasDrift: pt.HasDrift})
			if len(points) == maxHops {
				break outer
			}
		}
	}
	r.tr.end(parent, hops)
	if len(points) == 0 {
		return fmt.Errorf("stream probe: the sample never filled a window")
	}
	r.layer("stream.features_us", median(feats), "us")
	r.layer("stream.classify_alert_us", median(diff), "us")

	ev, err := alert.NewEvaluator(streamTrigger)
	if err != nil {
		return err
	}
	const reps = 200
	sp := r.tr.begin("alert.Evaluator.Eval", 0)
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, p := range points {
			ev.Eval(p)
		}
	}
	d := time.Since(t0)
	r.tr.end(sp, reps*len(points))
	r.layer("alert.eval_us", float64(d)/float64(time.Microsecond)/float64(reps*len(points)), "us")
	return nil
}

// probeServe sends the same requests, one at a time, round-robin through
// every entry point — the proxy (gRPC, JSON), mvgserve directly (gRPC,
// JSON), an in-process Engine, and Model.PredictProba — and reports each
// hop as the difference of median latencies between adjacent entry
// points.
func probeServe(ctx context.Context, r *run, in layerInputs) error {
	const perEntry = 300
	path, f := in.modelPath, in.fleet
	if path == "" {
		dir := filepath.Join(r.work, "probe-models")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path = filepath.Join(dir, serveModel+".mvg")
		if err := in.model.SaveFile(path); err != nil {
			return err
		}
	}
	if f == nil {
		var err error
		if f, err = startFleet(r.binDir, filepath.Dir(path)); err != nil {
			return err
		}
		defer f.stop()
	}
	m, err := mvg.LoadModelFile(path)
	if err != nil {
		return err
	}
	defer m.Pipeline().Close()
	reg := servecore.NewRegistry()
	reg.Register(serveModel, m, path)
	eng, err := servecore.NewEngine(servecore.Config{Registry: reg, MaxInFlight: 64, MaxQueue: 8192})
	if err != nil {
		return err
	}
	defer eng.Shutdown(ctx)
	viaProxy, direct, directJSON := newH2CClient(f.proxyAddr), newH2CClient(f.grpcAddr), newHTTP1Client(f.httpAddr)
	defer viaProxy.close()
	defer direct.close()
	defer directJSON.close()

	type entry struct {
		name string
		call func(context.Context, string, []float64) ([]float64, error)
	}
	entries := []entry{
		{"proxy.grpc", viaProxy.grpcProba},
		{"proxy.json", viaProxy.jsonProba},
		{"mvgserve.grpc", direct.grpcProba},
		{"mvgserve.json", directJSON.jsonProba},
		{"engine", func(ctx context.Context, name string, s []float64) ([]float64, error) {
			p, _, err := eng.PredictSingle(ctx, name, s)
			return p, err
		}},
		{"model", func(ctx context.Context, _ string, s []float64) ([]float64, error) {
			p, err := m.PredictProba(ctx, [][]float64{s})
			if err != nil {
				return nil, err
			}
			return p[0], nil
		}},
	}
	lat := make([][]float64, len(entries))
	var admit []float64
	for k := 0; k < perEntry; k++ {
		s := in.eval[k%len(in.eval)]
		for i, e := range entries {
			sp := r.tr.begin("serve.probe."+e.name, 0)
			t0 := time.Now()
			_, err := e.call(ctx, serveModel, s)
			lat[i] = append(lat[i], float64(time.Since(t0))/float64(time.Microsecond))
			r.tr.end(sp, 1)
			r.ops.done("probe."+e.name, err)
			if err != nil {
				return fmt.Errorf("serve probe %s: %w", e.name, err)
			}
		}
		t0 := time.Now()
		release, err := eng.Admit(ctx)
		admit = append(admit, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return err
		}
		release()
	}
	med := make([]float64, len(entries))
	for i := range lat {
		med[i] = median(lat[i])
		fmt.Printf("serve probe %-14s p50 %9.1f us\n", entries[i].name, med[i])
	}
	r.layer("proxy.hop_us", (med[0]-med[2]+med[1]-med[3])/2, "us")
	r.layer("grpcapi.hop_us", med[2]-med[4], "us")
	r.layer("httpapi.hop_us", med[3]-med[4], "us")
	r.layer("serve.engine_us", med[4]-med[5], "us")
	r.layer("serve.admit_wait_us", median(admit), "us")
	if _, ok := r.metrics["serve.batch_size_mean"]; !ok {
		page, err := getText("http://" + f.httpAddr + "/metrics")
		if err != nil {
			return err
		}
		batches, err := scrape(page, "mvgserve_coalesced_batches_total")
		if err != nil {
			return err
		}
		reqs, err := scrape(page, "mvgserve_coalesced_requests_total")
		if err != nil {
			return err
		}
		r.layer("serve.batch_size_mean", reqs/math.Max(batches, 1), "requests")
	}
	return nil
}
