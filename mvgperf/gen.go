package main

import (
	"math"
	"math/rand"
)

// Input generator. Every input of every workload is a pure function of
// the seed, made here and handed to the program; the program never
// generates its own data.
//
// The three classes differ in the way visibility graphs see: a random
// walk (long-range visibility, hubs on peaks), white noise (short-range,
// near-exponential degree tail) and a noisy periodic signal (regular
// visibility between crests). Each series also gets a random offset and
// scale, so a class is not given away by its level.
const numClasses = 3

// series draws one series of class c with n samples.
func series(rng *rand.Rand, c, n int) []float64 {
	s := make([]float64, n)
	fillClass(rng, c, s)
	return s
}

// fillClass overwrites dst with a fresh series of class c.
func fillClass(rng *rand.Rand, c int, dst []float64) {
	offset := rng.NormFloat64() * 3
	scale := 0.5 + rng.Float64()*2
	switch c {
	case 0:
		x := 0.0
		for i := range dst {
			x += rng.NormFloat64()
			dst[i] = offset + scale*x
		}
	case 1:
		for i := range dst {
			dst[i] = offset + scale*rng.NormFloat64()
		}
	default:
		period := 16 + rng.Float64()*48
		phase := rng.Float64() * 2 * math.Pi
		for i := range dst {
			dst[i] = offset + scale*(math.Sin(2*math.Pi*float64(i)/period+phase)+0.35*rng.NormFloat64())
		}
	}
}

// labelledSet draws count series of length n with balanced, interleaved
// labels.
func labelledSet(rng *rand.Rand, count, n int) ([][]float64, []int) {
	xs := make([][]float64, count)
	ys := make([]int, count)
	for i := range xs {
		ys[i] = i % numClasses
		xs[i] = series(rng, ys[i], n)
	}
	return xs, ys
}

// streamSource is an endless, seed-determined sample sequence for one
// stream: segments of one class after another, so the stream's proba
// trigger rises and clears as the class under the window changes. The
// classes cycle in a fixed order, so every seed feeds the same mix of
// graph shapes and only the samples themselves change.
type streamSource struct {
	rng   *rand.Rand
	seg   []float64
	pos   int
	class int
}

func newStreamSource(seed int64, first, segLen int) *streamSource {
	return &streamSource{rng: rand.New(rand.NewSource(seed)), seg: make([]float64, segLen), pos: segLen, class: first - 1}
}

func (s *streamSource) next() float64 {
	if s.pos == len(s.seg) {
		s.class = (s.class + 1) % numClasses
		fillClass(s.rng, s.class, s.seg)
		s.pos = 0
	}
	x := s.seg[s.pos]
	s.pos++
	return x
}
