package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// VerdictKind classifies one comparison of a metric between two sets of
// runs.
type VerdictKind int

const (
	// VerdictOK: B's median is within the bound of A's, and both sets are
	// steady enough to tell.
	VerdictOK VerdictKind = iota
	// VerdictWorse: B's median is worse than A's by more than the bound.
	VerdictWorse
	// VerdictUnresolved: a set's quartile spread exceeds the bound, so the
	// runs cannot show whether the metric moved.
	VerdictUnresolved
)

func (k VerdictKind) String() string {
	switch k {
	case VerdictWorse:
		return "worse"
	case VerdictUnresolved:
		return "unresolved"
	default:
		return "ok"
	}
}

// summary is one set's values of one metric: count and Python-style
// quartiles.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{N: len(xs), Q1: q1, Med: med, Q3: q3}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Med) }

// Verdict is the comparison of one end-to-end metric on one workload: its
// kind, the metric's bound, and the observed change — B's median against
// A's as a share of A's median, signed so that positive is worse.
type Verdict struct {
	Kind     VerdictKind
	Workload string
	Metric   string
	Bound    float64
	Change   float64
	A, B     summary
}

func (v Verdict) Error() string {
	return fmt.Sprintf("%s %s: %s (change %+.1f%%, bound %.0f%%, spread A %.1f%% B %.1f%%)",
		v.Workload, v.Metric, v.Kind, 100*v.Change, 100*v.Bound, 100*v.A.spread(), 100*v.B.spread())
}

// judge compares one metric's values from set a (the baseline) and set b.
// Set-up time is judged on its median alone, as its spread is not gated.
func judge(workload string, d metricDef, a, b []float64) Verdict {
	v := Verdict{Workload: workload, Metric: d.Name, Bound: d.Bound, A: summarize(a), B: summarize(b)}
	v.Change = ratio(v.B.Med-v.A.Med, v.A.Med)
	if d.Better == "higher" {
		v.Change = -v.Change
	}
	switch {
	case v.Change > d.Bound:
		v.Kind = VerdictWorse
	case d.Name != "setup_s" && (v.A.spread() > d.Bound || v.B.spread() > d.Bound):
		v.Kind = VerdictUnresolved
	}
	return v
}

// compareSets judges every end-to-end metric of every workload present in
// both sets. It refuses sets from different machines and sets holding a
// failed run.
func compareSets(a, b []record) ([]Verdict, error) {
	var machine *fingerprint
	for _, set := range [][]record{a, b} {
		for _, r := range set {
			if !r.Correct {
				return nil, fmt.Errorf("%s seed %d: run failed its checks", r.Workload, r.Seed)
			}
			m := r.Fingerprint.machine()
			if machine == nil {
				machine = &m
			} else if m != *machine {
				return nil, fmt.Errorf("fingerprints differ: %+v vs %+v", *machine, m)
			}
		}
	}
	va, vb := valuesByWorkload(a), valuesByWorkload(b)
	var names []string
	for w := range va {
		if _, ok := vb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no workload has results in both sets")
	}
	var out []Verdict
	for _, w := range names {
		for _, d := range endToEnd {
			out = append(out, judge(w, d, va[w][d.Name], vb[w][d.Name]))
		}
	}
	return out, nil
}

func valuesByWorkload(rs []record) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range rs {
		m := out[r.Workload]
		if m == nil {
			m = make(map[string][]float64)
			out[r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

// loadRecords reads the untraced result files of a directory.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return out, nil
}

// compareMain implements "saperf compare A B": it prints a verdict per
// workload and end-to-end metric, and exits 1 when any is not ok.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: saperf compare A/ B/")
		return 2
	}
	vs, err := compareDirs(args[0], args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "saperf compare:", err)
		return 2
	}
	return printVerdicts(out, vs)
}

func compareDirs(dirA, dirB string) ([]Verdict, error) {
	a, err := loadRecords(dirA)
	if err != nil {
		return nil, err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return nil, err
	}
	return compareSets(a, b)
}

func printVerdicts(out io.Writer, vs []Verdict) int {
	status := 0
	fmt.Fprintf(out, "%-16s %-20s %33s %33s %8s  %s\n", "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "change", "verdict")
	for _, v := range vs {
		fmt.Fprintf(out, "%-16s %-20s %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g %+7.1f%%  %s\n",
			v.Workload, v.Metric, v.A.Q1, v.A.Med, v.A.Q3, v.B.Q1, v.B.Med, v.B.Q3, 100*v.Change, v.Kind)
		if v.Kind != VerdictOK {
			status = 1
		}
	}
	return status
}
