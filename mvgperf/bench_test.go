package main

import (
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares.
var (
	endToEnd = []string{"p50_ms", "peak_rss_mb", "series_per_s", "setup_s"}
	perLayer = []string{
		"alert.eval_us", "bulk.read_s", "bulk.store_mb", "bulk.write_mb_per_s",
		"core.extract_us", "core.unattributed_us", "graph.assortativity_us",
		"graph.csr_build_us", "graph.edges_per_series", "graph.kcore_us",
		"grpcapi.hop_us", "httpapi.hop_us", "ml.classify_us", "ml.fit_s",
		"motif.count_us", "parallel.speedup", "proxy.hop_us",
		"serve.admit_wait_us", "serve.batch_size_mean", "serve.engine_us",
		"stream.classify_alert_us", "stream.features_us",
		"timeseries.preprocess_us", "visibility.hvg_build_us",
		"visibility.push_ns", "visibility.vg_build_us",
	}
)

// TestQuick runs every workload on tiny inputs, untraced and traced, with
// every output check and the self-test that shows each check rejecting a
// perturbed row, proba or transition list.
func TestQuick(t *testing.T) {
	bin := t.TempDir()
	for _, cmd := range []string{"mvgserve", "mvgproxy"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "mvg/cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
	}
	for _, w := range []string{"offline", "serve", "stream"} {
		for _, traced := range []bool{false, true} {
			res, err := execute(w, 3, 1, traced, true, bin, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w, traced, got, want)
			}
		}
	}
}
