package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mvg"
)

// The serve workload: an open-loop schedule of single-series predict
// requests on short series through mvgproxy to one mvgserve replica.
// Short graphs make motif counting cheap, so the codecs, the proxy hop,
// admission and the coalescer carry a large share of the cost.
type serveParams struct {
	n, train, pool  int
	lowRPS, highRPS float64
	highRequests    int       // the high phase sends this many, enough for a p99
	inFlight        int       // requests kept outstanding in the saturation phase
	ladder          []float64 // req/s, ascending; each step sends stepRequests
	stepRequests    int
}

func serveSize(quick bool) serveParams {
	if quick {
		return serveParams{n: 64, train: 30, pool: 24, lowRPS: 50, highRPS: 100, highRequests: 100,
			inFlight: 4, ladder: []float64{150}, stepRequests: 100}
	}
	return serveParams{n: 160, train: 120, pool: 240, lowRPS: 80, highRPS: 150, highRequests: 2500,
		inFlight: 16, ladder: []float64{300, 400, 500}, stepRequests: p99Min}
}

// serveP99LimitMS is the latency limit a ladder rate must meet at p99.
const serveP99LimitMS = 25.0

const serveModel = "bench"

// phaseStats is what one fixed-rate phase of the open loop measured.
type phaseStats struct {
	rate    float64
	lat     []time.Duration // from each request's due time
	failed  int
	sent    int
	backlog int64         // requests still in flight when the phase's schedule ended
	maxLate time.Duration // how late the generator fired, at worst
}

func (ps *phaseStats) p99ms() float64 { _, p99 := latencySummary(ps.lat); return p99 }

// tailMS is the p99 when the phase holds p99Min samples; quick runs, too
// short for that, fall back to the worst latency seen.
func (ps *phaseStats) tailMS(quick bool) float64 {
	if p99 := ps.p99ms(); p99 >= 0 || !quick {
		return p99
	}
	return quantile(millis(ps.lat), 1)
}

// passes reports whether the phase met the latency limit with no failure
// and no backlog beyond what the limit itself allows in flight.
func (ps *phaseStats) passes(quick bool) bool {
	p99 := ps.tailMS(quick)
	return ps.failed == 0 && p99 >= 0 && p99 <= serveP99LimitMS &&
		float64(ps.backlog) <= ps.rate*serveP99LimitMS/1000+2
}

// openLoop fires count requests at a fixed rate, each in its own
// goroutine at its due time whether or not earlier ones have returned,
// then waits for the stragglers.
func openLoop(rate float64, count, first int, send func(i int) error) *phaseStats {
	dur := time.Duration(float64(count) / rate * float64(time.Second))
	ps := &phaseStats{rate: rate}
	var (
		mu          sync.Mutex
		wg          sync.WaitGroup
		outstanding atomic.Int64
	)
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for k := 0; k < count; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > ps.maxLate {
			ps.maxLate = late
		}
		wg.Add(1)
		outstanding.Add(1)
		ps.sent++
		go func(i int, due time.Time) {
			defer wg.Done()
			err := send(i)
			lat := time.Since(due)
			outstanding.Add(-1)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				ps.failed++
				return
			}
			ps.lat = append(ps.lat, lat)
		}(first+k, due)
	}
	if d := time.Until(t0.Add(dur)); d > 0 {
		time.Sleep(d)
	}
	ps.backlog = outstanding.Load()
	wg.Wait()
	return ps
}

// closedLoop keeps inFlight requests outstanding for dur, each client
// sending its next request when the previous one returns. It reports the
// median completion rate over satBins equal slices of the phase, so a
// burst of stolen CPU time in one slice does not decide the figure. Every
// client finishes its request in flight, so each sends whole requests.
func closedLoop(inFlight int, dur time.Duration, first int, send func(i int) error) (float64, int) {
	const satBins = 20
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		bins [satBins]atomic.Int64
	)
	next.Store(int64(first))
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := 0; c < inFlight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if send(int(next.Add(1)-1)) == nil {
					if b := int(time.Since(t0) * satBins / dur); b < satBins {
						bins[b].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, satBins)
	for i := range bins {
		rates[i] = float64(bins[i].Load()) / (dur.Seconds() / satBins)
	}
	return median(rates), int(next.Load()) - first
}

type serveSetup struct {
	pipe  *mvg.Pipeline
	fleet *fleet
}

func runServe(r *run) error {
	ctx := context.Background()
	p := serveSize(r.quick)
	rng := rand.New(rand.NewSource(r.seed))
	trainX, trainY := labelledSet(rng, p.train, p.n)
	reqX, _ := labelledSet(rng, p.pool, p.n)
	modelDir := filepath.Join(r.work, "models")
	modelPath := filepath.Join(modelDir, serveModel+".mvg")
	if err := os.MkdirAll(modelDir, 0o755); err != nil {
		return err
	}

	setup, setupS, err := timedSetups(3, func() (serveSetup, error) {
		pipe, err := mvg.NewPipeline(mvg.Config{Workers: benchWorkers, Seed: r.seed})
		if err != nil {
			return serveSetup{}, err
		}
		m, err := pipe.Train(ctx, trainX, trainY, numClasses)
		if err == nil {
			err = m.SaveFile(modelPath)
		}
		if err != nil {
			pipe.Close()
			return serveSetup{}, err
		}
		f, err := startFleet(r.binDir, modelDir)
		if err != nil {
			pipe.Close()
			return serveSetup{}, err
		}
		return serveSetup{pipe: pipe, fleet: f}, nil
	}, func(s serveSetup) { s.fleet.stop(); s.pipe.Close() })
	if err != nil {
		return err
	}
	defer setup.pipe.Close()
	defer setup.fleet.stop()

	// The generator's own copy of the served model: every proba the fleet
	// returns must equal its PredictProba bit for bit.
	ref, err := mvg.LoadModelFile(modelPath)
	if err != nil {
		return err
	}
	want, err := ref.PredictProba(ctx, reqX)
	if err != nil {
		return err
	}
	defer ref.Pipeline().Close()

	client := newH2CClient(setup.fleet.proxyAddr)
	defer client.close()
	var mismatch atomic.Value
	send := func(i int) error {
		k := i % len(reqX)
		kind := "grpc_predict_proba"
		call := client.grpcProba
		if i%2 == 1 {
			kind, call = "json_predict_proba", client.jsonProba
		}
		sp := r.tr.begin("serve.request."+kind, 0)
		proba, err := call(ctx, serveModel, reqX[k])
		r.tr.end(sp, 1)
		r.ops.done(kind, err)
		if err != nil {
			return err
		}
		if err := checkProba(proba, want[k]); err != nil {
			mismatch.CompareAndSwap(nil, fmt.Errorf("request %d (series %d, %s): %w", i, k, kind, err))
			return err
		}
		return nil
	}

	// Warm the connection, the codecs and the coalescer before timing.
	for i := 0; i < 2*len(reqX); i++ {
		if err := send(i); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	r.ops = newOpLog()

	// The schedule: low and high fixed rates, a saturation phase with a
	// fixed number of requests in flight, then the rate ladder up to the
	// first rate that misses the limit. --seconds scales the low and
	// saturation phases; the high phase and every ladder step send a
	// fixed count, enough for a p99.
	phase := time.Duration(r.seconds / 6 * float64(time.Second))
	low := openLoop(p.lowRPS, int(p.lowRPS*phase.Seconds()), 0, send)
	high := openLoop(p.highRPS, p.highRequests, low.sent, send)
	next := low.sent + high.sent
	satRate, satSent := closedLoop(p.inFlight, phase, next, send)
	next += satSent
	var peak *phaseStats
	for _, rate := range p.ladder {
		st := openLoop(rate, p.stepRequests, next, send)
		next += st.sent
		fmt.Printf("serve ladder %6.0f req/s: sent %5d failed %d p99 %.2f ms backlog %d late %v\n",
			rate, st.sent, st.failed, st.p99ms(), st.backlog, st.maxLate)
		if !st.passes(r.quick) {
			break
		}
		peak = st
	}
	if err, _ := mismatch.Load().(error); err != nil {
		r.ops.check("proba_identical", err)
	} else {
		r.ops.check("proba_identical", nil)
	}

	rss, err := setup.fleet.peakRSSMB()
	if err != nil {
		return err
	}
	metrics, err := getText("http://" + setup.fleet.httpAddr + "/metrics")
	if err != nil {
		return err
	}
	batches, err1 := scrape(metrics, "mvgserve_coalesced_batches_total")
	reqs, err2 := scrape(metrics, "mvgserve_coalesced_requests_total")
	if err1 == nil && err2 == nil && batches > 0 {
		r.layer("serve.batch_size_mean", reqs/batches, "requests")
	}

	for _, ph := range []struct {
		name string
		st   *phaseStats
	}{{"low", low}, {"high", high}} {
		p50, p99 := latencySummary(ph.st.lat)
		fmt.Printf("serve %-4s %6.0f req/s: sent %5d failed %d p50 %.3f ms p99 %.3f ms backlog %d late %v\n",
			ph.name, ph.st.rate, ph.st.sent, ph.st.failed, p50, p99, ph.st.backlog, ph.st.maxLate)
	}
	peakRPS := 0.0
	if peak != nil {
		peakRPS = peak.rate
	}
	fmt.Printf("serve peak_rps %.0f (p99 limit %.0f ms; 0 = the lowest ladder rate missed it)\n", peakRPS, serveP99LimitMS)
	fmt.Printf("serve saturated %d in flight: %.1f req/s\n", p.inFlight, satRate)
	p50, _ := latencySummary(high.lat)
	fmt.Printf("serve high p99 %.3f ms (median over windows of 1000 requests)\n", windowedQuantile(high.lat, 0.99))
	r.e2e("setup_s", setupS, "s")
	r.e2e("peak_rss_mb", rss, "MB")
	r.e2e("series_per_s", satRate, "series/s")
	r.e2e("p50_ms", p50, "ms")
	fmt.Printf("tail: p90 %.3f ms, p99 %.3f ms (medians over windows of 100 and 1000 samples)\n",
		windowedQuantile(high.lat, 0.9), windowedQuantile(high.lat, 0.99))
	if r.tr != nil {
		return probeLayers(r, layerInputs{
			pipe: setup.pipe, model: ref, modelPath: modelPath, fleet: setup.fleet,
			cfg: mvg.Config{Workers: benchWorkers, Seed: r.seed}, prep: prepConfig{tau: 15},
			train: trainX, labels: labelStrings(trainY), eval: reqX[:min(64, len(reqX))],
		})
	}
	return nil
}

// checkProba requires got to equal want bit for bit and to sum to one.
func checkProba(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("proba has %d classes, want %d", len(got), len(want))
	}
	sum := 0.0
	for c := range got {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			return fmt.Errorf("proba[%d] = %v, in-process PredictProba gives %v", c, got[c], want[c])
		}
		sum += got[c]
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("proba sums to %v", sum)
	}
	return nil
}

func labelStrings(ys []int) []string {
	out := make([]string, len(ys))
	for i, y := range ys {
		out[i] = fmt.Sprint(y)
	}
	return out
}
