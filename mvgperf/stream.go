package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"mvg"
)

// The stream workload: a few dozen model-bound sliding-window streams,
// each with one proba trigger, driven in a closed loop by benchWorkers
// goroutines. With detrending and z-normalization off the streams run in
// incremental mode: ring-graph append/evict plus a CSR snapshot per hop,
// never the worker pool or the server.
type streamParams struct {
	window, hop, streams, train int
	segment                     int // samples per class segment of a stream's input
	checkEvery                  int // every checkEvery-th hop of a goroutine is re-extracted in batch
}

func streamSize(quick bool) streamParams {
	if quick {
		return streamParams{window: 64, hop: 8, streams: 4, train: 30, segment: 96, checkEvery: 4}
	}
	return streamParams{window: 512, hop: 16, streams: 32, train: 90, segment: 768, checkEvery: 64}
}

// streamTrigger fires while the periodic class is likely under the window.
var streamTrigger = mvg.AlertTrigger{Name: "periodic", Kind: mvg.AlertKindProba, Class: 2, Rise: 0.8, Clear: 0.5, For: 2, ClearFor: 2}

var streamConfig = mvg.Config{Workers: benchWorkers, NoDetrend: true, NoZNormalize: true}

// benchStream is one stream plus what the checks need: the last window
// of raw samples, and every hop's trigger value and transitions.
type benchStream struct {
	s      *mvg.Stream
	src    *streamSource
	ring   []float64
	pushed int
	values []float64
	sample []int
	trans  []mvg.AlertTransition
	// sampled windows with the stream's own feature rows, re-extracted
	// in batch after the timed phase
	windows, feats [][]float64
}

func (b *benchStream) push(x float64) (bool, error) {
	b.ring[b.pushed%len(b.ring)] = x
	b.pushed++
	return b.s.Push(x)
}

func (b *benchStream) window() []float64 {
	w := make([]float64, len(b.ring))
	for i := range w {
		w[i] = b.ring[(b.pushed+i)%len(b.ring)]
	}
	return w
}

// hop pushes samples up to the next hop boundary and classifies the
// window, advancing the alert state.
func (b *benchStream) hop(ctx context.Context, r *run, parent int) error {
	sp := r.tr.begin("mvg.Stream.Push", parent)
	n := 0
	for {
		n++
		ready, err := b.push(b.src.next())
		if err != nil {
			r.tr.end(sp, n)
			return err
		}
		if ready {
			break
		}
	}
	r.tr.end(sp, n)
	sp = r.tr.begin("mvg.Stream.PredictAlert", parent)
	pt, err := b.s.PredictAlert(ctx)
	r.tr.end(sp, 1)
	if err != nil {
		return err
	}
	b.values = append(b.values, pt.Proba[streamTrigger.Class])
	b.sample = append(b.sample, pt.Sample)
	b.trans = append(b.trans, pt.Transitions...)
	return nil
}

type streamSetup struct {
	model   *mvg.Model
	streams []*benchStream
}

func runStream(r *run) error {
	ctx := context.Background()
	p := streamSize(r.quick)
	rng := rand.New(rand.NewSource(r.seed))
	trainX, trainY := labelledSet(rng, p.train, p.window)

	setup, setupS, err := timedSetups(3, func() (streamSetup, error) {
		cfg := streamConfig
		cfg.Seed = r.seed
		pipe, err := mvg.NewPipeline(cfg)
		if err != nil {
			return streamSetup{}, err
		}
		m, err := pipe.Train(ctx, trainX, trainY, numClasses)
		if err != nil {
			pipe.Close()
			return streamSetup{}, err
		}
		st := streamSetup{model: m}
		for i := 0; i < p.streams; i++ {
			s, err := m.NewStream(p.hop)
			if err == nil {
				err = s.SetAlerts(streamTrigger)
			}
			if err != nil {
				pipe.Close()
				return streamSetup{}, err
			}
			b := &benchStream{s: s, src: newStreamSource(r.seed*1000+int64(i), i, p.segment), ring: make([]float64, p.window)}
			// Fill the first window; its first hop starts the alert state.
			if err := b.hop(ctx, &run{ops: r.ops}, 0); err != nil {
				pipe.Close()
				return streamSetup{}, err
			}
			st.streams = append(st.streams, b)
		}
		return st, nil
	}, func(s streamSetup) { s.model.Pipeline().Close() })
	if err != nil {
		return err
	}
	defer setup.model.Pipeline().Close()
	incremental := true
	for _, b := range setup.streams {
		incremental = incremental && b.s.Incremental()
	}
	if !incremental {
		r.ops.check("incremental", fmt.Errorf("stream is not in incremental mode"))
	} else {
		r.ops.check("incremental", nil)
	}

	// Closed loop: goroutine g owns streams g, g+G, ... and gives each of
	// them one hop per round until the run time is spent.
	var (
		mu       sync.Mutex
		hopLat   []time.Duration
		winRate  float64 // windows classified per busy second, summed over goroutines
		sampRate float64
	)
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for g := 0; g < benchWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var (
				lat     []time.Duration
				busy    time.Duration
				samples int
				hops    int
			)
			for time.Now().Before(deadline) {
				for i := g; i < len(setup.streams); i += benchWorkers {
					b := setup.streams[i]
					before := b.pushed
					t0 := time.Now()
					err := b.hop(ctx, r, 0)
					d := time.Since(t0)
					r.ops.done("stream_hop", err)
					if err != nil {
						continue
					}
					lat = append(lat, d)
					busy += d
					samples += b.pushed - before
					hops++
					if hops%p.checkEvery == 0 {
						f, err := b.s.Features()
						if err != nil {
							r.ops.check("stream_features", err)
							continue
						}
						b.windows = append(b.windows, b.window())
						b.feats = append(b.feats, f)
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			hopLat = append(hopLat, lat...)
			winRate += windowedRate(lat)
			sampRate += float64(samples) / busy.Seconds()
		}(g)
	}
	wg.Wait()
	peak, err := peakRSSMB("self")
	if err != nil {
		return err
	}

	pipe := setup.model.Pipeline()
	prep := prepConfig{noZNorm: true, noDetrend: true, tau: 15}
	oracleDone := 0
	for _, b := range setup.streams {
		r.ops.check("alert_transitions", checkTransitions(streamTrigger, b.values, b.sample, b.trans))
		for k, w := range b.windows {
			rows, err := pipe.Extract(ctx, [][]float64{w})
			if err == nil {
				err = sameBits(b.feats[k], rows[0])
			}
			r.ops.check("stream_vs_batch", err)
			if oracleDone < 2 {
				r.ops.check("oracle_row", checkRowOracle(prep, w, b.feats[k]))
				oracleDone++
			}
		}
	}

	p50, _ := latencySummary(hopLat)
	fmt.Printf("stream: %d hops; samples_per_s %.0f  hop_p50_ms %.4f\n", len(hopLat), sampRate, p50)
	r.e2e("setup_s", setupS, "s")
	r.e2e("peak_rss_mb", peak, "MB")
	r.e2e("series_per_s", winRate, "series/s")
	r.e2e("p50_ms", p50, "ms")
	fmt.Printf("tail: p90 %.3f ms, p99 %.3f ms (medians over windows of 100 and 1000 samples)\n",
		windowedQuantile(hopLat, 0.9), windowedQuantile(hopLat, 0.99))
	if r.tr != nil {
		var eval [][]float64
		for _, b := range setup.streams {
			eval = append(eval, b.windows...)
		}
		cfg := streamConfig
		cfg.Seed = r.seed
		return probeLayers(r, layerInputs{
			pipe: pipe, model: setup.model, cfg: cfg, prep: prep,
			train: trainX, labels: labelStrings(trainY), eval: eval[:min(64, len(eval))],
		})
	}
	return nil
}

// windowedRate is the median, over consecutive windows of p99Min hops,
// of hops per busy second: like windowedQuantile, it keeps a burst of stolen
// CPU time from deciding the run's figure.
func windowedRate(lat []time.Duration) float64 {
	var rates []float64
	for lo := 0; lo+p99Min <= len(lat); lo += p99Min {
		var busy time.Duration
		for _, d := range lat[lo : lo+p99Min] {
			busy += d
		}
		rates = append(rates, p99Min/busy.Seconds())
	}
	if len(rates) == 0 {
		var busy time.Duration
		for _, d := range lat {
			busy += d
		}
		return float64(len(lat)) / busy.Seconds()
	}
	return median(rates)
}

func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("row has %d features, batch extraction %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("feature %d: %v, batch extraction gives %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkTransitions recomputes the trigger's transitions from the emitted
// trigger values by the documented rule (docs/alerting.md): active at
// value ≥ Rise, clear below Clear, held in between; OK/RESOLVED → PENDING
// or FIRING after For consecutive active hops; PENDING back to OK on a
// clear hop; FIRING → RESOLVED after ClearFor consecutive clear hops;
// RESOLVED lasts one hop. It compares them with what the stream emitted.
func checkTransitions(t mvg.AlertTrigger, values []float64, samples []int, got []mvg.AlertTransition) error {
	type tr struct {
		from, to mvg.AlertState
		sample   int
	}
	var want []tr
	state := mvg.AlertOK
	active, clear := 0, 0
	for i, v := range values {
		isActive := v >= t.Rise
		isClear := v < t.Clear
		next := state
		switch state {
		case mvg.AlertOK, mvg.AlertResolved:
			if state == mvg.AlertResolved {
				next = mvg.AlertOK
			}
			if isActive {
				active++
				next = mvg.AlertPending
				if active >= t.For {
					next = mvg.AlertFiring
				}
			} else if isClear {
				active = 0
			}
		case mvg.AlertPending:
			if isActive {
				active++
				if active >= t.For {
					next = mvg.AlertFiring
				}
			} else if isClear {
				active = 0
				next = mvg.AlertOK
			}
		case mvg.AlertFiring:
			if isActive {
				clear = 0
			} else if isClear {
				clear++
				if clear >= t.ClearFor {
					next = mvg.AlertResolved
					active, clear = 0, 0
				}
			}
		}
		if next != state {
			want = append(want, tr{state, next, samples[i]})
			state = next
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream emitted %d transitions, the rule gives %d", len(got), len(want))
	}
	for i, g := range got {
		if g.From != want[i].from || g.To != want[i].to || g.Sample != want[i].sample {
			return fmt.Errorf("transition %d: stream %v→%v at sample %d, rule %v→%v at %d",
				i, g.From, g.To, g.Sample, want[i].from, want[i].to, want[i].sample)
		}
	}
	return nil
}
