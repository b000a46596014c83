package main

import "testing"

func TestQuantileIsNearestRank(t *testing.T) {
	s := newSampler(2000, 1)
	for v := int64(1000); v >= 1; v-- {
		s.add(v)
	}
	d := merge(s)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.001, 1}, {0.9995, 1000}} {
		// p99.95 of 1000 samples has fewer than ten beyond it.
		got, err := d.quantile(c.q)
		if c.q == 0.9995 {
			if err == nil {
				t.Errorf("p%g of 1000 samples: got %d, want a refusal", c.q*100, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g = %d, %v; want %d", c.q*100, got, err, c.want)
		}
	}
}

func TestQuantileRefusesP99BelowThousandSamples(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		refuse bool
	}{{999, 0.99, true}, {1000, 0.99, false}, {19, 0.5, true}, {20, 0.5, false}} {
		s := newSampler(c.n, 1)
		for i := 0; i < c.n; i++ {
			s.add(int64(i))
		}
		_, err := merge(s).quantile(c.q)
		if (err != nil) != c.refuse {
			t.Errorf("p%g of %d samples: err = %v, want refusal %v", c.q*100, c.n, err, c.refuse)
		}
	}
	if v, err := merge(newSampler(8, 1)).quantileOrZero(0.99); v != 0 || err != nil {
		t.Errorf("empty per-layer quantile = %d, %v; want 0, nil", v, err)
	}
}

func TestTailMeanAveragesTheSlowestShare(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	// The slowest 1% of 1..1000 is 991..1000.
	if m, err := tailMean(sorted, 0.99); err != nil || m != 995.5 {
		t.Errorf("tail mean = %g, %v; want 995.5", m, err)
	}
	if _, err := tailMean(sorted[:999], 0.99); err == nil {
		t.Error("tail mean of 9 values was reported")
	}
}

func TestSamplerKeepsFixedUniformSample(t *testing.T) {
	s := newSampler(1000, 7)
	const n = 100000
	for v := int64(1); v <= n; v++ {
		s.add(v)
	}
	if len(s.vals) != 1000 || s.seen != n || s.sum != n*(n+1)/2 {
		t.Fatalf("kept %d, seen %d, sum %d", len(s.vals), s.seen, s.sum)
	}
	if p50, _ := merge(s).quantile(0.5); p50 < 45000 || p50 > 55000 {
		t.Errorf("p50 of a uniform 1..%d sample = %d", n, p50)
	}
}

func TestMergeWeightsSamplersBySeenCount(t *testing.T) {
	// a keeps 100 of 10,000 fives, b all of its 100 ones. Unweighted, the
	// median of the 200 kept values would be 1.
	a, b := newSampler(100, 1), newSampler(100, 2)
	for i := 0; i < 10000; i++ {
		a.add(5)
	}
	for i := 0; i < 100; i++ {
		b.add(1)
	}
	if p50, err := merge(a, b).quantile(0.5); err != nil || p50 != 5 {
		t.Errorf("weighted p50 = %d, %v; want 5", p50, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
}
