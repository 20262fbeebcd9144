package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"mvg"
)

// offlineParams sizes the offline workload: long series, so visibility
// graph building, motif counting, the worker pool and the classifier fit
// do most of the work.
type offlineParams struct {
	n, train, heldout, chunk int
	storeChunk               int
	oracleRows               int
}

func offlineSize(quick bool) offlineParams {
	if quick {
		return offlineParams{n: 128, train: 30, heldout: 40, chunk: 4, storeChunk: 16, oracleRows: 2}
	}
	return offlineParams{n: 1024, train: 150, heldout: 2000, chunk: 2, storeChunk: 64, oracleRows: 3}
}

// offlineErrorFloor is the held-out error a working classifier must stay
// under. Chance level on three balanced classes is 2/3.
const offlineErrorFloor = 0.2

const benchWorkers = 2

// runOffline repeats whole rounds of the offline job — write the training
// set into a feature store, train from the store, classify the held-out
// set in PredictBatch calls of `chunk` series (one per worker, as a
// job that streams its input would) — until the run time is spent.
func runOffline(r *run) error {
	ctx := context.Background()
	p := offlineSize(r.quick)
	rng := rand.New(rand.NewSource(r.seed))
	trainX, trainY := labelledSet(rng, p.train, p.n)
	testX, testY := labelledSet(rng, p.heldout, p.n)
	labels := make([]string, len(trainY))
	for i, y := range trainY {
		labels[i] = fmt.Sprint(y)
	}

	warm := trainX[:min(32, len(trainX))]
	pipe, setupS, err := timedSetups(5, func() (*mvg.Pipeline, error) {
		pipe, err := mvg.NewPipeline(mvg.Config{Workers: benchWorkers, Seed: r.seed})
		if err != nil {
			return nil, err
		}
		// Fill the pool's per-worker scratch, as a long-lived job would.
		if _, err := pipe.Extract(ctx, warm); err != nil {
			pipe.Close()
			return nil, err
		}
		return pipe, nil
	}, func(p *mvg.Pipeline) { p.Close() })
	if err != nil {
		return err
	}
	defer pipe.Close()

	var (
		roundSecs []float64
		chunkLat  []time.Duration
		extractS  []float64
		trainS    []float64
		classifyS []float64
		model     *mvg.Model
		preds     []int
		storeDir  = filepath.Join(r.work, "store")
	)
	t0 := time.Now()
	// At least three rounds, so the chunk latencies fill three p99 windows.
	for round := 0; round < 3 || time.Since(t0).Seconds() < r.seconds; round++ {
		rs := r.tr.begin("offline.round", 0)
		start := time.Now()

		sp := r.tr.begin("mvg.Pipeline.ExtractToStore", rs)
		_, err := pipe.ExtractToStore(ctx, mvg.SliceSource(trainX, labels, p.storeChunk),
			mvg.StoreOptions{Dir: storeDir, Dataset: "offline"})
		r.tr.end(sp, len(trainX))
		r.ops.done("extract_to_store", err)
		if err != nil {
			return fmt.Errorf("extract to store: %w", err)
		}
		tExtract := time.Now()

		sp = r.tr.begin("mvg.OpenFeatureStore+TrainFromStore", rs)
		store, err := mvg.OpenFeatureStore(storeDir)
		if err == nil {
			model, err = pipe.TrainFromStore(ctx, store)
		}
		r.tr.end(sp, len(trainX))
		r.ops.done("train_from_store", err)
		if err != nil {
			return fmt.Errorf("train from store: %w", err)
		}
		tTrain := time.Now()

		preds = preds[:0]
		for i := 0; i < len(testX); i += p.chunk {
			batch := testX[i:min(i+p.chunk, len(testX))]
			sp := r.tr.begin("mvg.Model.PredictBatch", rs)
			c0 := time.Now()
			out, err := model.PredictBatch(ctx, batch)
			chunkLat = append(chunkLat, time.Since(c0))
			r.tr.end(sp, len(batch))
			r.ops.done("predict_batch", err)
			if err != nil {
				return fmt.Errorf("predict batch: %w", err)
			}
			preds = append(preds, out...)
		}
		end := time.Now()
		r.tr.end(rs, len(trainX)+len(testX))
		roundSecs = append(roundSecs, end.Sub(start).Seconds())
		extractS = append(extractS, tExtract.Sub(start).Seconds())
		trainS = append(trainS, tTrain.Sub(tExtract).Seconds())
		classifyS = append(classifyS, end.Sub(tTrain).Seconds())
	}
	peak, err := peakRSSMB("self")
	if err != nil {
		return err
	}

	// Checks, outside the timed rounds.
	r.ops.check("heldout_error", checkHeldout(preds, testY))
	r.ops.check("workers_identical", checkWorkerCounts(ctx, model, testX[:min(64, len(testX))]))
	store, err := mvg.OpenFeatureStore(storeDir)
	if err != nil {
		return err
	}
	rows, _, err := store.Matrix()
	if err != nil {
		return err
	}
	cfg := prepConfig{tau: 15}
	for i := 0; i < p.oracleRows; i++ {
		k := i * len(trainX) / p.oracleRows
		r.ops.check("oracle_row", checkRowOracle(cfg, trainX[k], rows[k]))
	}
	for _, row := range rows {
		r.ops.check("row_shape", checkRowShape(row, pipe.NumFeatures(p.n)))
	}

	series := float64(len(trainX) + len(testX))
	p50, _ := latencySummary(chunkLat)
	fmt.Printf("offline: %d rounds; extract_series_per_s %.1f  train_s %.3f  classify_series_per_s %.1f (medians)  chunk p99 %.3f ms\n",
		len(roundSecs), float64(len(trainX))/median(extractS), median(trainS), float64(len(testX))/median(classifyS),
		windowedQuantile(chunkLat, 0.99))
	r.e2e("setup_s", setupS, "s")
	r.e2e("peak_rss_mb", peak, "MB")
	r.e2e("series_per_s", series/median(roundSecs), "series/s")
	r.e2e("p50_ms", p50, "ms")
	fmt.Printf("tail: p90 %.3f ms, p99 %.3f ms (medians over windows of 100 and 1000 samples)\n",
		windowedQuantile(chunkLat, 0.9), windowedQuantile(chunkLat, 0.99))
	if r.tr != nil {
		return probeLayers(r, layerInputs{
			pipe: pipe, model: model, cfg: mvg.Config{Workers: benchWorkers, Seed: r.seed},
			prep: cfg, train: trainX, labels: labels, eval: testX[:min(64, len(testX))],
		})
	}
	return nil
}

func checkHeldout(preds, labels []int) error {
	if len(preds) != len(labels) {
		return fmt.Errorf("%d predictions for %d series", len(preds), len(labels))
	}
	wrong := 0
	for i := range preds {
		if preds[i] != labels[i] {
			wrong++
		}
	}
	if e := float64(wrong) / float64(len(labels)); e >= offlineErrorFloor {
		return fmt.Errorf("held-out error %.3f, floor %.2f", e, offlineErrorFloor)
	}
	return nil
}

// checkWorkerCounts pins the determinism contract: PredictBatch gives the
// same classes at one and two workers.
func checkWorkerCounts(ctx context.Context, m *mvg.Model, xs [][]float64) error {
	defer m.SetWorkers(benchWorkers)
	var outs [2][]int
	for i, w := range []int{1, 2} {
		m.SetWorkers(w)
		out, err := m.PredictBatch(ctx, xs)
		if err != nil {
			return err
		}
		outs[i] = out
	}
	if !slices.Equal(outs[0], outs[1]) {
		return fmt.Errorf("PredictBatch differs between 1 and 2 workers")
	}
	return nil
}
