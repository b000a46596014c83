package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported quantile: the
// p99 of fewer than 1,000 samples rests on fewer than ten values and is
// refused rather than reported.
const minBeyond = 10

// sampler keeps a uniform random sample (a reservoir) of at most cap of the
// values offered to it, plus their exact count and sum. Quantiles over a
// run of any length then cost fixed memory, so the run's resident memory
// does not grow with the number of operations a faster build completes.
type sampler struct {
	vals []int64
	seen int64
	sum  int64
	rng  uint64
}

// newSampler allocates the whole reservoir up front, outside any timed
// window.
func newSampler(capacity int, seed uint64) *sampler {
	return &sampler{vals: make([]int64, 0, capacity), rng: seed}
}

func (s *sampler) add(v int64) {
	s.seen++
	s.sum += v
	if len(s.vals) < cap(s.vals) {
		s.vals = append(s.vals, v)
		return
	}
	// Algorithm R: the new value replaces a kept one with probability
	// cap/seen.
	s.rng = mix(s.rng)
	if j := s.rng % uint64(s.seen); j < uint64(cap(s.vals)) {
		s.vals[j] = v
	}
}

// dist is the merged, sorted sample of one or more samplers. Each kept
// value stands for seen/kept offered values of its sampler, so samplers that
// saw different numbers of values merge without bias.
type dist struct {
	vals    []int64
	weights []float64
	total   float64 // values offered, over all samplers
	sum     int64   // exact sum of the values offered
}

func merge(ss ...*sampler) dist {
	type wv struct {
		v int64
		w float64
	}
	var all []wv
	var d dist
	for _, s := range ss {
		if s == nil || len(s.vals) == 0 {
			continue
		}
		w := float64(s.seen) / float64(len(s.vals))
		for _, v := range s.vals {
			all = append(all, wv{v, w})
		}
		d.total += float64(s.seen)
		d.sum += s.sum
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	d.vals = make([]int64, len(all))
	d.weights = make([]float64, len(all))
	for i, x := range all {
		d.vals[i], d.weights[i] = x.v, x.w
	}
	return d
}

// supports refuses a q-quantile of n samples when fewer than minBeyond of
// them would lie beyond it.
func supports(n int, q float64) error {
	if need := int(math.Ceil(minBeyond/(1-q) - 1e-9)); n < need {
		return fmt.Errorf("p%g needs at least %d samples, have %d", q*100, need, n)
	}
	return nil
}

// nearestRank returns the q-quantile of sorted by nearest rank: the
// ceil(q·n)-th smallest value.
func nearestRank(sorted []int64, q float64) (int64, error) {
	if err := supports(len(sorted), q); err != nil {
		return 0, err
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	return sorted[max(i, 0)], nil
}

// tailMean returns the mean of sorted's values beyond its q-quantile: the
// slowest (1−q)·n of them. Like a quantile, it needs minBeyond of them.
func tailMean(sorted []int64, q float64) (float64, error) {
	k := int(math.Floor(float64(len(sorted))*(1-q) + 1e-9))
	if k < minBeyond {
		return 0, fmt.Errorf("the slowest %g%% of %d samples is fewer than %d", (1-q)*100, len(sorted), minBeyond)
	}
	var sum int64
	for _, v := range sorted[len(sorted)-k:] {
		sum += v
	}
	return float64(sum) / float64(k), nil
}

// quantile is nearestRank over the weighted sample: the smallest kept value
// whose cumulative weight reaches ceil(q × offered).
func (d dist) quantile(q float64) (int64, error) {
	n := len(d.vals)
	if err := supports(n, q); err != nil {
		return 0, err
	}
	rank := math.Ceil(q*d.total - 1e-9)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, w := range d.weights {
		cum += w
		if cum >= rank-1e-9 {
			return d.vals[i], nil
		}
	}
	return d.vals[n-1], nil
}

// quantileOrZero is quantile for per-layer metrics, where an empty sample
// means the workload never reached that layer: it reads 0 rather than
// failing. An under-sized non-empty sample is still refused.
func (d dist) quantileOrZero(q float64) (int64, error) {
	if len(d.vals) == 0 {
		return 0, nil
	}
	return d.quantile(q)
}

// median of xs, 0 when empty.
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) computes them; one value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// mix is the splitmix64 finalizer: a bijection on uint64, so distinct
// inputs give distinct keys, and a cheap seeded generator step.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
