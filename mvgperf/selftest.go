package main

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"mvg"
	"mvg/internal/alert"
)

// selfTest shows that every output check fires: each is fed a correct
// output, which it must accept, and perturbed copies, which it must
// reject. Quick runs call it, so the benchmark's own test covers it.
func selfTest(r *run) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed))
	pipe, err := mvg.NewPipeline(mvg.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer pipe.Close()
	s := series(rng, 0, 96)
	rows, err := pipe.Extract(ctx, [][]float64{s})
	if err != nil {
		return err
	}
	row := rows[0]
	prep := prepConfig{tau: 15}

	perturbed := func(col int, f func(float64) float64) []float64 {
		c := append([]float64(nil), row...)
		c[col] = f(c[col])
		return c
	}
	nextUp := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	fires := func(name string, good error, bad ...error) {
		err := good
		for i, b := range bad {
			if err == nil && b == nil {
				err = errors.New("check accepted perturbed output " + string(rune('a'+i)))
			}
		}
		r.ops.check("fires."+name, err)
	}

	fires("oracle_row", checkRowOracle(prep, s, row),
		checkRowOracle(prep, s, perturbed(colKCore, func(v float64) float64 { return v + 1 })),
		checkRowOracle(prep, s, perturbed(blockWidth+colMaxDeg, func(v float64) float64 { return v - 1 })),
		checkRowOracle(prep, s, perturbed(colDensity, func(v float64) float64 { return v * 1.001 })),
		checkRowOracle(prep, s, perturbed(2*blockWidth, func(v float64) float64 { return v * 1.01 })))
	fires("row_shape", checkRowShape(row, len(row)),
		checkRowShape(perturbed(3, func(v float64) float64 { return -v - 0.1 }), len(row)),
		checkRowShape(perturbed(7, func(float64) float64 { return math.NaN() }), len(row)),
		checkRowShape(perturbed(12, func(v float64) float64 { return v + 0.01 }), len(row)),
		checkRowShape(row[:len(row)-1], len(row)))
	fires("same_bits", sameBits(row, row), sameBits(row, perturbed(5, nextUp)))

	want := []float64{0.25, 0.25, 0.5}
	fires("proba_identical", checkProba(append([]float64(nil), want...), want),
		checkProba([]float64{0.25, nextUp(0.25), 0.5}, want),
		checkProba([]float64{0.25, 0.25}, want))

	fires("heldout_error", checkHeldout([]int{0, 1, 2, 0, 1, 2}, []int{0, 1, 2, 0, 1, 2}),
		checkHeldout([]int{0, 0, 0, 0, 0, 0}, []int{0, 1, 2, 0, 1, 2}))

	// A trigger-value walk through every state, evaluated by the
	// program's evaluator, checked by the benchmark's reading of the rule.
	values := []float64{0.1, 0.9, 0.6, 0.95, 0.9, 0.7, 0.3, 0.2, 0.1, 0.85, 0.4, 0.9, 0.9, math.NaN(), 0.2, 0.2}
	ev, err := alert.NewEvaluator(streamTrigger)
	if err != nil {
		return err
	}
	samples := make([]int, len(values))
	var trans []mvg.AlertTransition
	for i, v := range values {
		samples[i] = 100 + i
		trans = append(trans, ev.Eval(alert.Point{Sample: samples[i], Class: 2, Proba: []float64{0, 1 - v, v}})...)
	}
	moved := append([]mvg.AlertTransition(nil), trans...)
	moved[len(moved)-1].Sample++
	fires("alert_transitions", checkTransitions(streamTrigger, values, samples, trans),
		checkTransitions(streamTrigger, values, samples, trans[:len(trans)-1]),
		checkTransitions(streamTrigger, values, samples, moved))
	return nil
}
