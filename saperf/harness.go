package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"time"

	"setagreement"
	"setagreement/obs"
)

// processStart is as close to the process start as a Go program gets: set-up
// time and span start times count from it.
var processStart = time.Now()

// workload is one traffic mix (README.md says why each was chosen). setup
// builds a fresh system under test — constructed, with whatever handles the
// workload holds across operations claimed — and drive runs one client's
// closed loop against it.
type workload struct {
	name string
	// n is the process count of the workload's objects (k = 1, m = 1).
	n int
	// clients is the number of client goroutines; never above nproc = 2.
	clients int
	// decisionsPerOp converts operations to decisions for per-decision
	// counters (a fan-out round decides 256 proposals).
	decisionsPerOp int64
	// warmOps is each client's untimed warm-up, run on every set-up.
	warmOps int64
	// sliceOps is each client's operations per slice of the timed window.
	sliceOps int64
	setup    func(p *pass, n int) (instance, error)
}

type instance interface {
	drive(c *client, b budget) error
	counters() counters
}

// budget says when a client's loop may end: once it has done minOps
// operations and the clock has passed until. The warm-up has a zero until,
// so its op count alone ends it.
type budget struct {
	until  time.Time
	minOps int64
}

func (b budget) done(ops int64, now time.Time) bool {
	return ops >= b.minOps && !now.Before(b.until)
}

// pass is one measured run of a workload: the seed its inputs come from,
// the run-wide context (a deadline far past the window, so a hung
// operation fails the run instead of stalling it), and the obs collector
// of a traced pass (nil otherwise).
type pass struct {
	seed uint64
	ctx  context.Context
	col  *obs.Collector
}

// objectOptions are the options every object of the pass is built with:
// defaults, plus the collector on a traced pass.
func (p *pass) objectOptions() []setagreement.Option {
	if p.col == nil {
		return nil
	}
	return []setagreement.Option{setagreement.WithObservability(p.col)}
}

// client is one client goroutine's state: its seeded key stream, its
// operation counts, the slicer of a timed window and the tracer of a traced
// pass (both nil in warm-up).
type client struct {
	id       int
	keys     stream
	ops      int64
	failed   int64
	firstErr error
	gPeak    int
	sl       *slicer
	tr       *tracer
}

// done records one finished operation; err is its failure, nil when the
// library returned the right outcome.
func (c *client) done(start, end time.Time, err error) {
	c.ops++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	if c.ops%16 == 0 {
		c.gPeak = max(c.gPeak, runtime.NumGoroutine())
	}
	if c.sl != nil {
		c.sl.add(start, end)
	}
}

// slicer cuts a client's timed window into slices of a fixed number of
// operations and keeps each slice's throughput, latency median and latency
// tail, plus resident-set samples. The end-to-end metrics are medians over
// slices and samples, so a burst of interference from outside the
// benchmark spoils a few slices rather than the run.
type slicer struct {
	lat     []int64   // latencies of the current slice; cap is the slice size
	start   time.Time // the current slice's start: the previous one's end
	rates   []float64
	p50s    []float64
	tails   []float64 // mean of the slowest 1%
	rss     []float64 // MB
	lastRSS time.Time
}

// rssEvery spaces the resident-set samples.
const rssEvery = 100 * time.Millisecond

func newSlicer(ops int64) *slicer { return &slicer{lat: make([]int64, 0, ops)} }

func (s *slicer) add(start, end time.Time) {
	if end.Sub(s.lastRSS) >= rssEvery {
		s.lastRSS = end
		if mb, err := procStatusMB("VmRSS"); err == nil {
			s.rss = append(s.rss, mb)
		}
	}
	s.lat = append(s.lat, int64(end.Sub(start)))
	if len(s.lat) < cap(s.lat) {
		return
	}
	slices.Sort(s.lat)
	p50, err50 := nearestRank(s.lat, 0.50)
	tail, errTail := tailMean(s.lat, 0.99)
	if err50 == nil && errTail == nil {
		s.rates = append(s.rates, float64(len(s.lat))/end.Sub(s.start).Seconds())
		s.p50s = append(s.p50s, float64(p50))
		s.tails = append(s.tails, tail)
	}
	s.lat = s.lat[:0]
	s.start = end
}

// stream is a seeded source of fresh keys and values: item n of stream s
// is mix(mix(seed) + s<<40 + n). mix is a bijection, so no two items of a run
// repeat, and the same seed gives the same items.
type stream struct {
	base uint64
	n    uint64
}

func newStream(seed uint64, s int) stream {
	return stream{base: mix(seed) + uint64(s)<<40}
}

func (s *stream) next() uint64 {
	s.n++
	return mix(s.base + s.n)
}

// key renders a stream item as an object key.
func key(x uint64) string { return strconv.FormatUint(x, 36) }

// counters are the library's public Stats, summed over a workload's
// objects. Objects and Registers are levels; the rest accumulate.
type counters struct {
	Steps, Scans, Wakeups, Spurious, Adopted int64
	MemSteps, CASRetries                     int64
	Wait                                     time.Duration
	Created, PoolHits                        int64
	Objects, Registers                       int
}

func arenaCounters(s setagreement.ArenaStats, registers int) counters {
	return counters{
		Steps: s.Steps, Scans: s.Scans, Wakeups: s.Wakeups, Spurious: s.SpuriousWakeups,
		Adopted: s.ScansAdopted, MemSteps: s.MemSteps, CASRetries: s.CASRetries, Wait: s.WaitTime,
		Created: s.Created, PoolHits: s.PoolHits, Objects: s.Objects, Registers: registers,
	}
}

// combine adds sign × b's accumulating counters to a's, keeping a's levels:
// sign -1 gives the accumulation between two readings.
func (a counters) combine(b counters, sign int64) counters {
	return counters{
		Steps: a.Steps + sign*b.Steps, Scans: a.Scans + sign*b.Scans, Wakeups: a.Wakeups + sign*b.Wakeups,
		Spurious: a.Spurious + sign*b.Spurious, Adopted: a.Adopted + sign*b.Adopted,
		MemSteps: a.MemSteps + sign*b.MemSteps, CASRetries: a.CASRetries + sign*b.CASRetries,
		Wait: a.Wait + time.Duration(sign)*b.Wait, Created: a.Created + sign*b.Created, PoolHits: a.PoolHits + sign*b.PoolHits,
		Objects: a.Objects, Registers: a.Registers,
	}
}

// passResult is everything one pass measured over its timed window.
type passResult struct {
	ops, failed int64
	firstErr    error
	clients     int
	rates       []float64 // per client and slice
	p50s, tails []float64 // per client and slice, ns
	rss         []float64 // MB
	mallocs     uint64
	allocBytes  uint64
	numGC       uint32
	gcCPU       float64
	gPeak       int
	ctr         counters
	obs0, obs1  *obs.Snapshot
	tracers     []*tracer
	setup       []time.Duration
	initS       float64 // process start to the first set-up
}

// decisions over the timed window.
func (r *passResult) decisions(w *workload) int64 { return r.ops * w.decisionsPerOp }

// rate is the median slice throughput, summed over the clients.
func (r *passResult) rate() float64 { return median(r.rates) * float64(r.clients) }

// runPass sets the workload up reps times (keeping the last), then runs
// its clients for the timed window.
func runPass(w *workload, seed uint64, seconds float64, col *obs.Collector, reps int) (*passResult, error) {
	window := time.Duration(seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 3*window+time.Minute)
	defer cancel()
	p := &pass{seed: seed, ctx: ctx, col: col}
	r := &passResult{clients: w.clients, initS: time.Since(processStart).Seconds()}
	var inst instance
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if inst, err = w.setup(p, w.n); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := make([]*client, w.clients)
		for c := range warm {
			warm[c] = &client{id: c, keys: newStream(seed, 16+c)}
		}
		if err := runClients(inst, warm, budget{minOps: w.warmOps}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		for _, c := range warm {
			if c.firstErr != nil {
				return nil, fmt.Errorf("warm-up: %w", c.firstErr)
			}
		}
		r.setup = append(r.setup, time.Since(t0))
	}
	cs := make([]*client, w.clients)
	for c := range cs {
		cs[c] = &client{id: c, keys: newStream(seed, c), sl: newSlicer(w.sliceOps)}
		if col != nil {
			cs[c].tr = newTracer(c, seed)
			r.tracers = append(r.tracers, cs[c].tr)
		}
	}
	runtime.GC()
	ctr0 := inst.counters()
	r.obs0 = col.Snapshot(false)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	start := time.Now()
	for _, c := range cs {
		c.sl.start = start
	}
	err := runClients(inst, cs, budget{until: start.Add(window), minOps: w.sliceOps})
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	r.obs1 = col.Snapshot(false)
	r.ctr = inst.counters().combine(ctr0, -1)
	if err != nil {
		return nil, err
	}
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.numGC = ms1.NumGC - ms0.NumGC
	if cpu1 > cpu0 {
		r.gcCPU = (gc1 - gc0) / (cpu1 - cpu0)
	}
	for _, c := range cs {
		r.ops += c.ops
		r.failed += c.failed
		if r.firstErr == nil {
			r.firstErr = c.firstErr
		}
		r.gPeak = max(r.gPeak, c.gPeak)
		r.rates = append(r.rates, c.sl.rates...)
		r.p50s = append(r.p50s, c.sl.p50s...)
		r.tails = append(r.tails, c.sl.tails...)
		r.rss = append(r.rss, c.sl.rss...)
	}
	return r, nil
}

// runClients runs every client's loop on its own goroutine and waits for
// all of them.
func runClients(inst instance, cs []*client, b budget) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = inst.drive(c, b)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupSeconds is the set-up time metric: process start to the first
// set-up, plus the median of the set-ups.
func (r *passResult) setupSeconds() float64 {
	ds := make([]float64, len(r.setup))
	for i, d := range r.setup {
		ds[i] = d.Seconds()
	}
	return r.initS + median(ds)
}

// gcCPU reads the runtime's cumulative GC and total CPU-time estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
