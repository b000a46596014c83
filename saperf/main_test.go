package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestParseFlagsTakesSeparateTraceValue(t *testing.T) {
	for _, c := range []struct {
		trace string
		want  bool
	}{{"0", false}, {"1", true}} {
		cfg, err := parseFlags([]string{"--workload", "lease-churn", "--seed", "42", "--seconds", "10", "--trace", c.trace})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.trace != c.want || cfg.seed != 42 || cfg.seconds != 10 || cfg.workload != "lease-churn" {
			t.Errorf("--trace %s: %+v", c.trace, cfg)
		}
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-seconds", "0"}, {"-spans", "x.jsonl"}, {"extra"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}

func TestLastLineIsTheResultObject(t *testing.T) {
	var out bytes.Buffer
	if code := runOne(config{workload: "lease-churn", seed: 3, seconds: 0.05}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("result keys: %s", lines[len(lines)-1])
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every metric is reported with its unit and every check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, spans, err := measure(w, config{workload: w.name, seed: 5, seconds: 0.1, trace: trace}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < w.sliceOps {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, rec.Correct, rec.Failed, rec.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if len(spans) == 0 {
					t.Errorf("%s: no spans sampled", w.name)
				}
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := rec.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json, which the
// benchmark is run and judged by, in step with the metrics saperf reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, defined %s", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what          string
		declared, def []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.def) {
			t.Errorf("%s: %d declared, %d defined", c.what, len(c.declared), len(c.def))
			continue
		}
		for i := range c.def {
			if c.declared[i] != c.def[i] {
				t.Errorf("%s %d: declared %+v, defined %+v", c.what, i, c.declared[i], c.def[i])
			}
		}
	}
}
