// Command saperf is the repository's end-to-end benchmark. It drives the
// public setagreement API with four workloads, checks every decision it
// gets back, and reports end-to-end metrics (untraced) or per-layer metrics
// (-trace). See README.md.
//
//	saperf -seed 1                       # every workload, each in its own process
//	saperf -workload lease-churn -seed 1 # one workload, in this process
//	saperf -workload fanout-batch -trace -spans out.jsonl
//	saperf compare A/ B/                 # compare two directories of -out results
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"setagreement/obs"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	out      string
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout))
	}
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saperf:", err)
		os.Exit(2)
	}
	if cfg.workload == "" {
		os.Exit(runAll(cfg))
	}
	os.Exit(runOne(cfg, os.Stdout))
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("saperf", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: every workload, each in a child process)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated key and proposed value")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window (a traced run splits it between its two passes)")
	fs.BoolVar(&cfg.trace, "trace", false, "report per-layer metrics from an untraced and a traced pass (also accepted as -trace 0|1)")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace and -workload: write the sampled spans to this JSON-lines file")
	fs.StringVar(&cfg.out, "out", "", "also write each run's result, with seed and machine fingerprint, into this directory")
	if err := fs.Parse(joinBoolValues(args, "trace")); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case cfg.seconds <= 0:
		return cfg, fmt.Errorf("-seconds must be positive")
	case cfg.spans != "" && (!cfg.trace || cfg.workload == ""):
		return cfg, fmt.Errorf("-spans needs -trace and -workload")
	}
	if cfg.workload != "" {
		if _, err := workloadByName(cfg.workload); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// joinBoolValues rewrites "-name 0" and "-name 1" (with one or two dashes)
// as "-name=0" and "-name=1", so a boolean flag also takes a separate value.
func joinBoolValues(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runAll runs every workload in its own child process, so each starts from
// a fresh runtime and measures its own resident memory.
func runAll(cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "saperf:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace=" + strconv.FormatBool(cfg.trace)}
		if cfg.out != "" {
			args = append(args, "-out", cfg.out)
		}
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "saperf: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// runOne runs one workload in this process and prints its metrics, ending
// with the JSON result line. It returns the exit status.
func runOne(cfg config, stdout io.Writer) int {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saperf:", err)
		return 2
	}
	rec, spans, err := measure(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saperf: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			fmt.Fprintln(os.Stderr, "saperf:", err)
			return 1
		}
	}
	if cfg.out != "" {
		if err := writeRecord(cfg.out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "saperf:", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "saperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// measure runs the workload's passes and builds its result: one untraced
// pass for the end-to-end metrics, or an untraced reference pass and a
// traced pass, each half the window, for the per-layer metrics. Human
// readable lines go to out.
func measure(w *workload, cfg config, out io.Writer) (*record, []span, error) {
	rec := &record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	var passes []*passResult
	var spans []span
	if !cfg.trace {
		// Set up several times and report the median, so set-up time is
		// steady enough to gate on.
		r, err := runPass(w, cfg.seed, cfg.seconds, nil, 5)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, r)
		if rec.Metrics, err = endToEndMetrics(r); err != nil {
			return nil, nil, err
		}
		info := newMetricSet(perLayer)
		counterMetrics(info, w, r)
		printMetrics(out, "counter", perLayer, info.m)
		printMetrics(out, "metric", endToEnd, rec.Metrics)
	} else {
		ref, err := runPass(w, cfg.seed, cfg.seconds/2, nil, 1)
		if err != nil {
			return nil, nil, err
		}
		tr, err := runPass(w, cfg.seed, cfg.seconds/2, obs.NewCollector(), 1)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, ref, tr)
		var notes []string
		if rec.Metrics, notes, err = layerMetrics(w, ref, tr); err != nil {
			return nil, nil, err
		}
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "saperf: %s: %s\n", w.name, n)
		}
		for _, t := range tr.tracers {
			spans = append(spans, t.spans...)
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		printSelfTime(out, spans)
		printMetrics(out, "layer", perLayer, rec.Metrics)
		fmt.Fprintf(out, "paper register bound min(n+2m-k, n) for n=%d, m=1, k=1: %d\n", w.n, min(w.n+2-1, w.n))
	}
	for _, p := range passes {
		rec.Attempted += p.ops
		rec.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "saperf: %s: %d of %d operations failed; first: %v\n", w.name, p.failed, p.ops, p.firstErr)
		}
	}
	rec.Correct = rec.Failed == 0
	fmt.Fprintf(out, "fail_ratio %g (%d of %d)\n", float64(rec.Failed)/float64(rec.Attempted), rec.Failed, rec.Attempted)
	rec.Fingerprint = currentFingerprint()
	return rec, spans, nil
}

func printMetrics(out io.Writer, prefix string, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(out, "%s %-36s %16.6g %s\n", prefix, d.Name, v.Value, v.Unit)
		}
	}
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", rec.Workload, rec.Seed)
	if rec.Trace {
		name += "-trace"
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}
