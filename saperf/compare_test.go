package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func defByName(t *testing.T, name string) metricDef {
	t.Helper()
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return metricDef{}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{40, 100, 160, 100, 100} // quartile spread 60%
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		metric string
		a, b   []float64
		kind   VerdictKind
	}{
		{"ops_per_s", steady, scaled(0.6), VerdictWorse},
		{"ops_per_s", steady, scaled(1.3), VerdictOK},
		{"ops_per_s", steady, scaled(0.95), VerdictOK},
		{"latency_p99_tail_mean_us", steady, scaled(1.4), VerdictWorse},
		{"latency_p99_tail_mean_us", steady, scaled(0.5), VerdictOK},
		{"allocs_per_op", steady, scaled(1.15), VerdictWorse},
		{"latency_p50_us", steady, noisy, VerdictUnresolved},
		{"latency_p50_us", noisy, steady, VerdictUnresolved},
		// Set-up time is gated on its median alone.
		{"setup_s", steady, noisy, VerdictOK},
		{"setup_s", steady, scaled(1.4), VerdictWorse},
	} {
		d := defByName(t, c.metric)
		v := judge("w", d, c.a, c.b)
		change := (median(c.b) - median(c.a)) / median(c.a)
		if d.Better == "higher" {
			change = -change
		}
		if v.Kind != c.kind || v.Bound != d.Bound || math.Abs(v.Change-change) > 1e-9 {
			t.Errorf("%s %v → %v: got %s bound %g change %g, want %s change %g",
				c.metric, c.a, c.b, v.Kind, v.Bound, v.Change, c.kind, change)
		}
	}
}

func result(workload, revision, cpu string, ops float64) record {
	r := record{Workload: workload, Correct: true, Metrics: map[string]metric{},
		Fingerprint: fingerprint{NProc: 2, GOMAXPROCS: 2, GOARCH: "amd64", CPUModel: cpu, GoVersion: "go1.24.0", Revision: revision}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = metric{Value: 10, Unit: d.Unit}
	}
	r.Metrics["ops_per_s"] = metric{Value: ops, Unit: "1/s"}
	return r
}

func TestCompareSets(t *testing.T) {
	a := []record{result("x", "r1", "cpu", 100), result("x", "r1", "cpu", 101), result("x", "r1", "cpu", 99)}
	b := []record{result("x", "r2", "cpu", 70), result("x", "r2", "cpu", 71), result("x", "r2", "cpu", 69)}
	vs, err := compareSets(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(endToEnd) {
		t.Fatalf("%d verdicts, want %d", len(vs), len(endToEnd))
	}
	var worse []Verdict
	for _, v := range vs {
		if v.Kind != VerdictOK {
			worse = append(worse, v)
		}
	}
	if len(worse) != 1 || worse[0].Metric != "ops_per_s" || worse[0].Kind != VerdictWorse {
		t.Fatalf("verdicts not ok: %v, want only ops_per_s worse", worse)
	}
	// A verdict is an error value a caller can match on.
	var err2 error = worse[0]
	var v Verdict
	if !errors.As(err2, &v) || v.Kind != VerdictWorse || !strings.Contains(err2.Error(), "worse") {
		t.Errorf("verdict as error: %v", err2)
	}
}

func TestCompareRefusesMismatchedOrFailedResults(t *testing.T) {
	a := []record{result("x", "r1", "cpu A", 100)}
	if _, err := compareSets(a, []record{result("x", "r2", "cpu B", 100)}); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("different CPU models: err = %v", err)
	}
	failed := result("x", "r2", "cpu A", 100)
	failed.Correct = false
	if _, err := compareSets(a, []record{failed}); err == nil {
		t.Error("a failed run was compared")
	}
	if _, err := compareSets(a, []record{result("y", "r2", "cpu A", 100)}); err == nil {
		t.Error("sets with no workload in common were compared")
	}
}
