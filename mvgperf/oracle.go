package main

import (
	"fmt"
	"math"

	"mvg/internal/timeseries"
)

// Independent output oracle. It rebuilds each scale's visibility graphs
// from their O(n²) definitions, recomputes the graph statistics the
// feature row carries (edge count through density and P(M21), degree
// extremes, mean degree, degeneracy by naive peeling) and checks the
// row's invariants. It shares only the preprocessing primitives with the
// program, so it pins graph construction, CSR and the statistics, not
// the series transforms.

// Per-graph block layout of the default "all" feature set
// (docs/features.md): 17 motif probabilities in five normalization
// groups, then density, assortativity, k-core, max/min/mean degree.
const (
	blockWidth = 23
	motifWidth = 17
	colDensity = 17
	colKCore   = 19
	colMaxDeg  = 20
	colMinDeg  = 21
	colMeanDeg = 22
)

var motifGroups = [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 12}, {12, 17}}

// oracleRelTol bounds the relative difference allowed on real-valued
// statistics that the oracle computes by a different summation order
// (density, mean degree, P(M21), group sums).
const oracleRelTol = 1e-9

// prepConfig mirrors the preprocessing switches of the pipeline under test.
type prepConfig struct {
	noZNorm, noDetrend bool
	tau                int
}

// oracleScales returns T0 (after the configured preprocessing) and every
// PAA halving longer than tau: the full multiscale pyramid of Algorithm 1.
func oracleScales(cfg prepConfig, s []float64) ([][]float64, error) {
	t := make([]float64, len(s))
	if cfg.noZNorm {
		copy(t, s)
	} else {
		timeseries.ZNormalizeInto(t, s)
	}
	if !cfg.noDetrend {
		timeseries.DetrendInto(t, t)
	}
	scales := [][]float64{t}
	for cur := t; len(cur)/2 > cfg.tau; {
		next, err := timeseries.HalveInto(nil, cur)
		if err != nil {
			return nil, err
		}
		scales = append(scales, next)
		cur = next
	}
	return scales, nil
}

// naiveVG links (i,j) iff every intermediate sample lies strictly below
// the line from i to j; scanning j rightwards this is "slope(i,j) exceeds
// every earlier slope from i".
func naiveVG(t []float64) [][]int {
	adj := make([][]int, len(t))
	for i := 0; i < len(t)-1; i++ {
		best := math.Inf(-1)
		for j := i + 1; j < len(t); j++ {
			slope := (t[j] - t[i]) / float64(j-i)
			if slope > best {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
				best = slope
			}
		}
	}
	return adj
}

// naiveHVG links (i,j) iff every intermediate sample is strictly below
// both endpoints.
func naiveHVG(t []float64) [][]int {
	adj := make([][]int, len(t))
	for i := 0; i < len(t)-1; i++ {
		between := math.Inf(-1)
		for j := i + 1; j < len(t); j++ {
			if between < t[i] && between < t[j] {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
			between = math.Max(between, t[j])
			if between >= t[i] {
				break
			}
		}
	}
	return adj
}

// graphStats are the integer facts the oracle derives from one graph.
type graphStats struct {
	n, m, maxDeg, minDeg, degeneracy int
}

func statsOf(adj [][]int) graphStats {
	st := graphStats{n: len(adj), minDeg: math.MaxInt}
	deg := make([]int, len(adj))
	for v, nb := range adj {
		deg[v] = len(nb)
		st.m += len(nb)
		st.maxDeg = max(st.maxDeg, len(nb))
		st.minDeg = min(st.minDeg, len(nb))
	}
	st.m /= 2
	// Naive peeling: repeatedly delete a vertex of minimum remaining
	// degree; the largest minimum seen is the degeneracy.
	removed := make([]bool, len(adj))
	for range adj {
		v := -1
		for u := range adj {
			if !removed[u] && (v < 0 || deg[u] < deg[v]) {
				v = u
			}
		}
		st.degeneracy = max(st.degeneracy, deg[v])
		removed[v] = true
		for _, w := range adj[v] {
			if !removed[w] {
				deg[w]--
			}
		}
	}
	return st
}

func relClose(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= oracleRelTol*math.Max(math.Abs(got), math.Abs(want))
}

// checkRowShape verifies the invariants every feature row must hold: the
// expected width, finite values, and non-negative motif groups each
// summing to one (or zero for a group with no instances).
func checkRowShape(row []float64, width int) error {
	if len(row) != width || width%blockWidth != 0 {
		return fmt.Errorf("row has %d features, want %d", len(row), width)
	}
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("feature %d is %v", i, v)
		}
	}
	for b := 0; b < width; b += blockWidth {
		for _, g := range motifGroups {
			sum := 0.0
			for _, p := range row[b+g[0] : b+g[1]] {
				if p < 0 {
					return fmt.Errorf("block at %d: negative motif probability %v", b, p)
				}
				sum += p
			}
			if sum != 0 && !relClose(sum, 1) {
				return fmt.Errorf("block at %d: motif group %v sums to %v", b, g, sum)
			}
		}
	}
	return nil
}

// checkRowOracle compares one feature row with the oracle's graphs of the
// same series: VG then HVG on every scale, in row order.
func checkRowOracle(cfg prepConfig, s, row []float64) error {
	if err := checkRowShape(row, len(row)); err != nil {
		return err
	}
	scales, err := oracleScales(cfg, s)
	if err != nil {
		return err
	}
	if want := 2 * len(scales) * blockWidth; len(row) != want {
		return fmt.Errorf("row has %d features, oracle expects %d (%d scales)", len(row), want, len(scales))
	}
	b := 0
	for si, t := range scales {
		for gi, adj := range [][][]int{naiveVG(t), naiveHVG(t)} {
			st := statsOf(adj)
			blk := row[b : b+blockWidth]
			b += blockWidth
			where := fmt.Sprintf("scale T%d %s", si, [2]string{"VG", "HVG"}[gi])
			n := float64(st.n)
			pairs := n * (n - 1) / 2
			if !relClose(blk[colDensity], float64(st.m)/pairs) {
				return fmt.Errorf("%s: density %v, oracle %d edges of %d vertices", where, blk[colDensity], st.m, st.n)
			}
			if !relClose(blk[0], float64(st.m)/pairs) {
				return fmt.Errorf("%s: P(M21) %v, oracle %d edges", where, blk[0], st.m)
			}
			ints := [][3]float64{
				{blk[colKCore], float64(st.degeneracy)},
				{blk[colMaxDeg], float64(st.maxDeg)},
				{blk[colMinDeg], float64(st.minDeg)},
			}
			for k, p := range ints {
				if p[0] != p[1] {
					return fmt.Errorf("%s: %s is %v, oracle %v", where, [3]string{"KCore", "MaxDegree", "MinDegree"}[k], p[0], p[1])
				}
			}
			if !relClose(blk[colMeanDeg], 2*float64(st.m)/n) {
				return fmt.Errorf("%s: mean degree %v, oracle %v", where, blk[colMeanDeg], 2*float64(st.m)/n)
			}
		}
	}
	return nil
}

// oracleEdges returns the total VG+HVG edge count over every scale of s:
// the exact work count graph.edges_per_series reports.
func oracleEdges(cfg prepConfig, s []float64) (int, error) {
	scales, err := oracleScales(cfg, s)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, t := range scales {
		total += statsOf(naiveVG(t)).m + statsOf(naiveHVG(t)).m
	}
	return total, nil
}
