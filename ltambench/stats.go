package main

import (
	"math"
	"sort"
	"time"
)

// Samples collects one latency or size distribution. Quantiles use the
// nearest-rank rule on a sorted copy, so a quantile is always one of the
// recorded values and never an interpolation.
type Samples struct {
	v      []float64
	sorted bool
}

// Add records one sample.
func (s *Samples) Add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// AddDur records a duration in the given unit (time.Microsecond → µs).
func (s *Samples) AddDur(d time.Duration, unit time.Duration) {
	s.Add(float64(d) / float64(unit))
}

// N is the sample count.
func (s *Samples) N() int { return len(s.v) }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it. An empty
// distribution yields 0.
func (s *Samples) Quantile(q float64) float64 {
	n := len(s.v)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.v[rank-1]
}

// median of a small slice of values (the set-up and recovery repeats).
func median(xs []float64) float64 {
	var s Samples
	for _, x := range xs {
		s.Add(x)
	}
	return s.Quantile(0.5)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Series is a timed sample stream split into windows: a sample recorded
// at time at during the round that started at base falls into window
// (round, (at-base)/width). Windowed statistics take the median over
// windows of each window's statistic, so a few slow seconds on a shared
// host move a run's figure less than they would move a pooled one. A
// zero width makes each round a single window.
type Series struct {
	width  time.Duration
	round  int
	base   time.Time
	limit  time.Duration // samples at or after base+limit are dropped
	byWin  map[int]*Samples
	span   map[int][2]time.Time // first and last sample time per window
	pooled Samples
}

// NewSeries makes a series with the given window width.
func NewSeries(width time.Duration) *Series {
	return &Series{width: width, byWin: map[int]*Samples{}, span: map[int][2]time.Time{}}
}

// StartRound begins round r at base; samples are kept for length (0 =
// no limit). With a window width, only whole windows count.
func (s *Series) StartRound(r int, base time.Time, length time.Duration) {
	s.round, s.base, s.limit = r, base, length
	if s.width > 0 && length > 0 {
		s.limit = length / s.width * s.width
	}
}

// Add records one sample taken at time at.
func (s *Series) Add(at time.Time, v float64) {
	off := at.Sub(s.base)
	if off < 0 || (s.limit > 0 && off >= s.limit) {
		return
	}
	key := s.round << 20
	if s.width > 0 {
		key += int(off / s.width)
	}
	w := s.byWin[key]
	if w == nil {
		w = &Samples{}
		s.byWin[key] = w
	}
	w.Add(v)
	s.pooled.Add(v)
	sp := s.span[key]
	if sp[0].IsZero() {
		sp[0] = at
	}
	sp[1] = at
	s.span[key] = sp
}

// Quantile is the median over windows of each window's q-quantile.
func (s *Series) Quantile(q float64) float64 {
	var per []float64
	for _, w := range s.byWin {
		per = append(per, w.Quantile(q))
	}
	return median(per)
}

// Rate is the median over windows of samples per second, each window's
// rate taken between its first and last sample (samples are assumed to
// be recorded in time order).
func (s *Series) Rate() float64 {
	var per []float64
	for k, w := range s.byWin {
		sp := s.span[k]
		if d := sp[1].Sub(sp[0]); w.N() > 1 && d > 0 {
			per = append(per, float64(w.N()-1)/d.Seconds())
		}
	}
	return median(per)
}

// Pooled is every kept sample, for tail diagnostics and counts.
func (s *Series) Pooled() *Samples { return &s.pooled }
