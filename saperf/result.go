package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"setagreement/obs"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set for
// end-to-end metrics only: the share of the baseline median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are measured with tracing off. Times and resident memory carry
// the widest bound: on a shared 2-CPU machine even a fixed CPU loop varies
// by about 9% between 10-second windows (see README.md).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_tail_mean_us", "us", "lower", 0.25},
	{"allocs_per_op", "allocs/op", "lower", 0.10},
	{"alloc_bytes_per_op", "B/op", "lower", 0.10},
	{"rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer come from a traced run. README.md maps each to the end-to-end
// metric and workload it should move.
var perLayer = []metricDef{
	{Name: "arena.object_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "arena.proc_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "arena.release_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "arena.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "arena.objects_end", Unit: "count", Better: "lower"},
	{Name: "handle.propose_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "handle.propose_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "handle.propose_async_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "handle.steps_per_decision", Unit: "steps/decision", Better: "lower"},
	{Name: "handle.scans_per_decision", Unit: "scans/decision", Better: "lower"},
	{Name: "handle.wait_us_per_1k", Unit: "us/1k", Better: "lower"},
	{Name: "handle.wakeups_per_1k", Unit: "count/1k", Better: "lower"},
	{Name: "handle.spurious_per_1k", Unit: "count/1k", Better: "lower"},
	{Name: "handle.adopted_scan_share", Unit: "ratio", Better: "higher"},
	{Name: "handle.solo_yield_share", Unit: "ratio", Better: "higher"},
	{Name: "core.registers", Unit: "count", Better: "lower"},
	{Name: "core.leader_ns_p50.depth_1k", Unit: "ns", Better: "lower"},
	{Name: "core.leader_ns_p50.depth_16k", Unit: "ns", Better: "lower"},
	{Name: "core.follower_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "register.mem_steps_per_decision", Unit: "steps/decision", Better: "lower"},
	{Name: "register.cas_retries_per_1k", Unit: "count/1k", Better: "lower"},
	{Name: "engine.submit_to_start_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.submit_to_start_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.drains_per_1k", Unit: "count/1k", Better: "lower"},
	{Name: "engine.wake_to_decide_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.park_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.parks_per_1k", Unit: "count/1k", Better: "lower"},
	{Name: "batch.submit_ns_per_proposal", Unit: "ns", Better: "lower"},
	{Name: "batch.register_ns_per_proposal", Unit: "ns", Better: "lower"},
	{Name: "batch.ttfd_us_p50", Unit: "us", Better: "lower"},
	{Name: "completion.next_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "completion.decide_to_deliver_us_p50", Unit: "us", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.dropped_events", Unit: "count", Better: "lower"},
	{Name: "goruntime.gc_per_1k_ops", Unit: "count/1k", Better: "lower"},
	{Name: "goruntime.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "goruntime.goroutines_peak", Unit: "count", Better: "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills metrics in the order of their definitions, checking
// that every defined metric is set.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
	// notes name the per-layer quantiles too few samples supported; they
	// read 0.
	notes []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: make(map[string]metric, len(defs))}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.Name == name {
			s.m[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("saperf: undefined metric " + name)
}

// setLayerQ sets a per-layer quantile in ns, divided by scale. A quantile
// its sample cannot support is not reported: it reads 0, with a note.
func (s *metricSet) setLayerQ(name string, v int64, err error, scale float64) {
	if err != nil {
		s.notes = append(s.notes, fmt.Sprintf("%s: %v; reported as 0", name, err))
		v = 0
	}
	s.set(name, float64(v)/scale)
}

func (s *metricSet) done() (map[string]metric, error) {
	for _, d := range s.defs {
		if _, ok := s.m[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s not measured", d.Name)
		}
	}
	return s.m, nil
}

// endToEndMetrics derives the end-to-end metrics of an untraced pass:
// medians over the slices of the timed window (throughput summed over the
// clients) and over its resident-set samples, allocation per operation over
// the whole window, and the median set-up time.
func endToEndMetrics(r *passResult) (map[string]metric, error) {
	if len(r.rates) == 0 || len(r.rss) == 0 {
		return nil, fmt.Errorf("the timed window completed no slice")
	}
	s := newMetricSet(endToEnd)
	s.set("ops_per_s", r.rate())
	// Slices hold at least 1,024 ops, so both latency figures are always
	// supported. The tail is a mean rather than the p99 itself: on
	// lease-churn about 1% of ops fall into a slow mode, so the p99 sits on
	// the edge of it and jumps with any shift in that share.
	s.set("latency_p50_us", median(r.p50s)/1e3)
	s.set("latency_p99_tail_mean_us", median(r.tails)/1e3)
	s.set("allocs_per_op", float64(r.mallocs)/float64(r.ops))
	s.set("alloc_bytes_per_op", float64(r.allocBytes)/float64(r.ops))
	s.set("rss_mb", median(r.rss))
	s.set("setup_s", r.setupSeconds())
	return s.done()
}

// layerMetrics derives the per-layer metrics: counts from the library's
// Stats and the Go runtime, read over the untraced reference pass ref, and
// timings and obs numbers from the traced pass tr. It also returns the
// notes on quantiles it could not report.
func layerMetrics(w *workload, ref, tr *passResult) (map[string]metric, []string, error) {
	s := newMetricSet(perLayer)
	counterMetrics(s, w, ref)

	q := func(name string, d dist, quant, scale float64) {
		v, err := d.quantileOrZero(quant)
		s.setLayerQ(name, v, err, scale)
	}
	ts := tr.tracers
	q("arena.object_ns_p50", callDist(ts, callObject), 0.5, 1)
	q("arena.proc_ns_p50", callDist(ts, callProc), 0.5, 1)
	q("arena.release_ns_p50", callDist(ts, callRelease), 0.5, 1)
	propose := callDist(ts, callPropose)
	q("handle.propose_ns_p50", propose, 0.5, 1)
	q("handle.propose_ns_p99", propose, 0.99, 1)
	q("handle.propose_async_ns_p50", callDist(ts, callProposeAsync), 0.5, 1)
	q("core.leader_ns_p50.depth_1k", namedDist(ts, leaderDepth1k), 0.5, 1)
	q("core.leader_ns_p50.depth_16k", namedDist(ts, leaderDepth16k), 0.5, 1)
	q("core.follower_ns_p50", namedDist(ts, followerTiming), 0.5, 1)
	q("batch.ttfd_us_p50", namedDist(ts, ttfdTiming), 0.5, 1e3)
	q("completion.next_wait_us_p50", callDist(ts, callNext), 0.5, 1e3)
	// Per-proposal submit and register costs: a batch call's time spread
	// over the proposals it carried.
	submitted := float64(tr.decisions(w))
	s.set("batch.submit_ns_per_proposal", float64(callDist(ts, callSubmitBatch).sum)/submitted)
	s.set("batch.register_ns_per_proposal", float64(callDist(ts, callRegister).sum)/submitted)

	// The collector's histograms and counters, over the traced window.
	oq := func(name string, lat obs.Latency, quant float64) {
		h := obsHist(tr.obs0, tr.obs1, lat)
		var err error
		if h.Count > 0 {
			err = supports(int(h.Count), quant)
		}
		s.setLayerQ(name, int64(h.Quantile(quant)), err, 1e3)
	}
	oq("engine.submit_to_start_us_p50", obs.LatSubmitToStart, 0.5)
	oq("engine.submit_to_start_us_p99", obs.LatSubmitToStart, 0.99)
	oq("engine.wake_to_decide_us_p50", obs.LatWakeToDecide, 0.5)
	oq("engine.park_us_p50", obs.LatPark, 0.5)
	oq("completion.decide_to_deliver_us_p50", obs.LatDecideToDeliver, 0.5)
	cnt := func(name string) float64 { return float64(tr.obs1.Counters[name] - tr.obs0.Counters[name]) }
	per1k := 1000 / float64(tr.decisions(w))
	s.set("engine.drains_per_1k", cnt("drains_spawned")*per1k)
	s.set("engine.parks_per_1k", cnt("parks")*per1k)
	solo, yields := cnt("solo_runs"), cnt("solo_runs")+cnt("sync_waits")+cnt("parks")
	s.set("handle.solo_yield_share", ratio(solo, yields))
	s.set("obs.dropped_events", float64(tr.obs1.DroppedEvents-tr.obs0.DroppedEvents))
	s.set("obs.trace_overhead_pct", 100*(1-tr.rate()/ref.rate()))
	m, err := s.done()
	return m, s.notes, err
}

// counterMetrics sets the per-layer metrics that come from counts: the
// library's public Stats and the Go runtime's. They need no tracing, so
// an untraced run reports them too.
func counterMetrics(s *metricSet, w *workload, r *passResult) {
	c, dec := r.ctr, float64(r.decisions(w))
	s.set("arena.pool_hit_ratio", ratio(float64(c.PoolHits), float64(c.Created)))
	s.set("arena.objects_end", float64(c.Objects))
	s.set("handle.steps_per_decision", float64(c.Steps)/dec)
	s.set("handle.scans_per_decision", float64(c.Scans)/dec)
	s.set("handle.wait_us_per_1k", c.Wait.Seconds()*1e6*1000/dec)
	s.set("handle.wakeups_per_1k", float64(c.Wakeups)*1000/dec)
	s.set("handle.spurious_per_1k", float64(c.Spurious)*1000/dec)
	s.set("handle.adopted_scan_share", ratio(float64(c.Adopted), float64(c.Scans)))
	s.set("core.registers", float64(c.Registers))
	s.set("register.mem_steps_per_decision", float64(c.MemSteps)/dec)
	s.set("register.cas_retries_per_1k", float64(c.CASRetries)*1000/dec)
	s.set("goruntime.gc_per_1k_ops", float64(r.numGC)*1000/float64(r.ops))
	s.set("goruntime.gc_cpu_fraction", r.gcCPU)
	s.set("goruntime.goroutines_peak", float64(r.gPeak))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// obsHist is histogram lat's growth from snapshot a to snapshot b.
func obsHist(a, b *obs.Snapshot, lat obs.Latency) obs.HistogramSnapshot {
	h := b.Latencies[lat.String()]
	p := a.Latencies[lat.String()]
	for i := range h.Counts {
		h.Counts[i] -= p.Counts[i]
	}
	h.Count -= p.Count
	h.SumNS -= p.SumNS
	return h
}

// procStatusMB reads a kB-valued field of /proc/self/status, in MB.
func procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// fingerprint identifies the machine and build a result came from. Two
// result sets are comparable only when their machines match; the revision
// is what a comparison is usually about, so it may differ.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func (f fingerprint) machine() fingerprint {
	f.Revision = ""
	return f
}

func currentFingerprint() fingerprint {
	f := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			f.Revision = rev
			if modified == "true" {
				f.Revision += "+dirty"
			}
		}
	}
	return f
}

// record is one run's result file: the final stdout line plus what makes
// it reproducible and comparable.
type record struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
}
