// Command sabench regenerates the paper's evaluation: the Figure 1 bounds
// table, the Theorem 2 and Theorem 10 adversary sweeps, the comparison with
// the DFGR13 baseline, the design ablations, the native memory-backend
// throughput table (mutex vs lock-free substrate), and the per-handle
// instrumentation table of the public API.
//
// Usage:
//
//	sabench                                  # all tables, defaults
//	sabench -table fig1 -format markdown
//	sabench -table t2 -n 6 -m 1 -k 2
//	sabench -table t10 -n 12 -k 1 -maxr 5
//	sabench -table backends -backend both
//	sabench -table handles -n 6 -k 2 -backend lockfree
//	sabench -table arena -backend lockfree
//	sabench -table waits -backend lockfree -json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"setagreement"
	iarena "setagreement/internal/arena"
	"setagreement/internal/core"
	"setagreement/internal/experiments"
	"setagreement/internal/lowerbound"
	"setagreement/internal/register"
	"setagreement/internal/report"
	"setagreement/internal/shmem"
	"setagreement/internal/snapshot"
	"setagreement/obs"
)

func main() {
	var (
		table     = flag.String("table", "all", "which table: fig1, t2, t10, dfgr13, snapshots, components, minreg, probe, latency, backends, handles, arena, waits, async, batch, obs, all")
		n         = flag.Int("n", 6, "number of processes")
		m         = flag.Int("m", 1, "obstruction degree")
		k         = flag.Int("k", 2, "agreement degree")
		maxR      = flag.Int("maxr", 5, "maximum register count for the t10 sweep")
		instances = flag.Int("instances", 3, "instances per repeated run")
		seeds     = flag.Int("seeds", 2, "schedules per check")
		backend   = flag.String("backend", "both", "native memory backend for the backends, handles, arena and waits tables: locked, lockfree, both")
		dur       = flag.Duration("dur", 150*time.Millisecond, "measurement duration per cell of the waits table")
		format    = flag.String("format", "text", "output format: text, markdown, csv")
		jsonOut   = flag.Bool("json", false, "emit results as one machine-readable JSON document (overrides -format)")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: sabench [flags]

sabench regenerates the paper's evaluation tables and the runtime
benchmarks of this implementation. Pick one table with -table or run all:

  fig1        register-bound table (the paper's Figure 1)
  t2          Theorem 2 covering-adversary sweep
  t10         Theorem 10 cloning-adversary sweep
  dfgr13      comparison with the DFGR13 baseline algorithm
  snapshots   snapshot-construction ablation
  components  component-count ablation
  minreg      minimum-register audit for selected (n, m, k)
  probe       component-count probe under random schedules
  latency     per-instance step-latency profile
  backends    native shared-memory throughput, mutex vs lock-free
  handles     per-handle instrumentation through the public API
  arena       arena serving throughput: shards x objects x goroutines
  waits       contended wait latency: backend x contention
  async       sync vs async serving: in-flight proposals x backend,
              with goroutine cost (the point of ProposeAsync)
  batch       batch vs looped submission: SubmitAll against a
              ProposeAsync loop, submit-side ns/proposal plus
              completion latency and time-to-first/last-decision
  obs         per-stage latency attribution from an instrumented run
              (WithObservability): the obs collector's histogram
              quantiles for every lifecycle stage, per backend

The -json flag switches the output to one machine-readable document
({"tables": [...]}), the format CI's bench-smoke job archives; the async
and obs tables' JSON is also what cmd/benchtraj gates regressions against.

Examples:
  sabench -table fig1 -format markdown
  sabench -table t2 -n 6 -m 1 -k 2
  sabench -table arena -backend lockfree
  sabench -table waits -backend lockfree -json
  sabench -table async -backend both -json
  sabench -table batch -backend both -json

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *jsonOut {
		*format = "json"
	}
	if err := run(*table, *n, *m, *k, *maxR, *instances, *seeds, *backend, *dur, *format); err != nil {
		fmt.Fprintf(os.Stderr, "sabench: %v\n", err)
		os.Exit(1)
	}
}

func run(table string, n, m, k, maxR, instances, seeds int, backend string, dur time.Duration, format string) error {
	p := core.Params{N: n, M: m, K: k}
	var tables []*report.Table

	add := func(t *report.Table, err error) error {
		if err != nil {
			return err
		}
		tables = append(tables, t)
		return nil
	}

	wantAll := table == "all"
	ran := false
	if wantAll || table == "fig1" {
		ran = true
		points := fig1Points(n)
		if err := add(experiments.Fig1(points, instances, seeds)); err != nil {
			return err
		}
	}
	if wantAll || table == "t2" {
		ran = true
		if err := add(experiments.Theorem2Sweep(p, lowerbound.DefaultCoverOptions())); err != nil {
			return err
		}
	}
	if wantAll || table == "t10" {
		ran = true
		cloneN := n
		if wantAll {
			cloneN = 12 // large enough to show both sides of the bound
		}
		if err := add(experiments.Theorem10Sweep(cloneN, 1, maxR, lowerbound.DefaultCloneOptions())); err != nil {
			return err
		}
	}
	if wantAll || table == "dfgr13" {
		ran = true
		if err := add(experiments.VsDFGR13(max(n, 5))); err != nil {
			return err
		}
	}
	if wantAll || table == "snapshots" {
		ran = true
		if err := add(experiments.SnapshotAblation(p)); err != nil {
			return err
		}
	}
	if wantAll || table == "components" {
		ran = true
		if err := add(experiments.ComponentAblation(p, 4)); err != nil {
			return err
		}
	}
	if wantAll || table == "minreg" {
		ran = true
		points := []core.Params{
			{N: 3, M: 1, K: 1},
			{N: 4, M: 1, K: 1},
			{N: 5, M: 1, K: 2},
			{N: 5, M: 2, K: 2},
			{N: 6, M: 1, K: 3},
		}
		if err := add(experiments.MinRegistersTable(points, lowerbound.DefaultCoverOptions())); err != nil {
			return err
		}
	}
	if wantAll || table == "probe" {
		ran = true
		if err := add(experiments.ComponentProbe(p, seeds)); err != nil {
			return err
		}
	}
	if wantAll || table == "latency" {
		ran = true
		alg, err := core.NewRepeated(p)
		if err != nil {
			return err
		}
		if err := add(experiments.LatencyProfile(alg, instances, 16)); err != nil {
			return err
		}
	}
	if wantAll || table == "backends" {
		ran = true
		backends, err := selectBackends(backend)
		if err != nil {
			return err
		}
		if err := add(backendThroughput(backends, 150*time.Millisecond)); err != nil {
			return err
		}
	}
	if wantAll || table == "handles" {
		ran = true
		backends, err := selectPublicBackends(backend)
		if err != nil {
			return err
		}
		if err := add(handleStatsTable(backends, n, k)); err != nil {
			return err
		}
	}
	if wantAll || table == "arena" {
		ran = true
		backends, err := selectPublicBackends(backend)
		if err != nil {
			return err
		}
		if err := add(arenaThroughput(backends, 100*time.Millisecond)); err != nil {
			return err
		}
	}
	if wantAll || table == "waits" {
		ran = true
		backends, err := selectPublicBackends(backend)
		if err != nil {
			return err
		}
		if err := add(waitTable(backends, dur)); err != nil {
			return err
		}
	}
	if wantAll || table == "async" {
		ran = true
		backends, err := selectPublicBackends(backend)
		if err != nil {
			return err
		}
		if err := add(asyncTable(backends, dur)); err != nil {
			return err
		}
	}
	if wantAll || table == "batch" {
		ran = true
		backends, err := selectPublicBackends(backend)
		if err != nil {
			return err
		}
		if err := add(batchTable(backends, dur)); err != nil {
			return err
		}
	}
	if wantAll || table == "obs" {
		ran = true
		backends, err := selectPublicBackends(backend)
		if err != nil {
			return err
		}
		if err := add(obsTable(backends, dur)); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown table %q", table)
	}

	if format == "json" {
		doc, err := report.JSON(tables...)
		if err != nil {
			return err
		}
		fmt.Print(doc)
		return nil
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		switch format {
		case "text":
			fmt.Print(t.String())
		case "markdown":
			fmt.Print(t.Markdown())
		case "csv":
			fmt.Print(t.CSV())
		default:
			return fmt.Errorf("unknown format %q", format)
		}
	}
	return nil
}

// selectBackends resolves the -backend flag to native backends.
func selectBackends(name string) ([]shmem.Backend, error) {
	if name == "both" {
		return register.Backends(), nil
	}
	b, err := register.BackendByName(name)
	if err != nil {
		return nil, err
	}
	return []shmem.Backend{b}, nil
}

// selectPublicBackends resolves the -backend flag to public-API backends.
func selectPublicBackends(name string) ([]setagreement.MemoryBackend, error) {
	switch name {
	case "both":
		return []setagreement.MemoryBackend{setagreement.BackendLocked, setagreement.BackendLockFree}, nil
	case "locked":
		return []setagreement.MemoryBackend{setagreement.BackendLocked}, nil
	case "lockfree":
		return []setagreement.MemoryBackend{setagreement.BackendLockFree}, nil
	default:
		return nil, fmt.Errorf("unknown backend %q (have locked, lockfree, both)", name)
	}
}

// handleStatsTable runs one-shot k-set agreement through the public
// handle-first API — n goroutines, each on its claimed handle — and prints
// every handle's Stats: the per-handle shared-memory work (steps, scans,
// wait time) and the object-wide backend counters (total memory steps,
// CAS retries). This is the library's observability surface; the same
// numbers are available to any production caller via Handle.Stats.
func handleStatsTable(backends []setagreement.MemoryBackend, n, k int) (*report.Table, error) {
	t := report.New("Per-handle instrumentation (one-shot agreement, public API)",
		"backend", "handle", "proposes", "steps", "scans", "wait", "wakeups", "mem-steps", "cas-retries")
	for _, be := range backends {
		a, err := setagreement.New[int](n, k,
			setagreement.WithMemoryBackend(be),
			setagreement.WithBackoff(time.Microsecond, time.Millisecond, 64),
		)
		if err != nil {
			return nil, err
		}
		handles := make([]*setagreement.Handle[int], n)
		for id := range handles {
			if handles[id], err = a.Proc(id); err != nil {
				return nil, err
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var wg sync.WaitGroup
		for id, h := range handles {
			wg.Add(1)
			go func(id int, h *setagreement.Handle[int]) {
				defer wg.Done()
				if _, err := h.Propose(ctx, 100+id); err != nil {
					fmt.Fprintf(os.Stderr, "sabench: handle %d: %v\n", id, err)
				}
			}(id, h)
		}
		wg.Wait()
		cancel()
		for id, h := range handles {
			s := h.Stats()
			t.Add(be.String(), id, s.Proposes, s.Steps, s.Scans,
				s.WaitTime.Round(time.Microsecond).String(), s.Wakeups, s.MemSteps, s.CASRetries)
		}
	}
	return t, nil
}

// waitTable measures what the wait layer is for: Propose latency under
// contention, per backend × proposer count. Each cell runs one
// repeated-agreement object with g goroutines proposing in a closed loop for
// the duration and reports the p50/p95 per-Propose latency, throughput, and
// the wait instrumentation (wakeups, spurious wakeups, total blocked time).
func waitTable(backends []setagreement.MemoryBackend, dur time.Duration) (*report.Table, error) {
	t := report.New("Contended Propose wait latency (repeated agreement, k=1)",
		"backend", "proposers", "p50", "p95", "proposes/sec", "wakeups", "spurious", "wait-total")
	for _, be := range backends {
		for _, proposers := range []int{1, 4, 8} {
			cell, err := measureWait(be, proposers, dur)
			if err != nil {
				return nil, err
			}
			t.Add(be.String(), proposers,
				cell.p50.Round(time.Microsecond).String(),
				cell.p95.Round(time.Microsecond).String(),
				fmt.Sprintf("%.0f", cell.rate),
				cell.wakeups, cell.spurious,
				cell.waitTotal.Round(time.Microsecond).String())
		}
	}
	return t, nil
}

type waitCell struct {
	p50, p95  time.Duration
	rate      float64
	wakeups   int64
	spurious  int64
	waitTotal time.Duration
}

// measureWait drives one contended repeated-agreement object: g of n
// processes propose in a closed loop for the duration; per-Propose
// latencies are recorded and summarized.
func measureWait(be setagreement.MemoryBackend, g int, dur time.Duration) (waitCell, error) {
	n := g
	if n < 2 {
		n = 2 // the core's minimum process count
	}
	// A window small enough that a Propose crosses several yield points:
	// solo yields are skipped, contended ones end at the next foreign write.
	r, err := setagreement.NewRepeated[int](n, 1,
		setagreement.WithMemoryBackend(be),
		setagreement.WithBackoff(100*time.Microsecond, 5*time.Millisecond, 16))
	if err != nil {
		return waitCell{}, err
	}
	handles := make([]*setagreement.Handle[int], g)
	for id := range handles {
		if handles[id], err = r.Proc(id); err != nil {
			return waitCell{}, err
		}
	}
	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		latMu     sync.Mutex
		latencies []time.Duration
		errs      = make([]error, g)
	)
	ctx := context.Background()
	start := time.Now()
	for id, h := range handles {
		wg.Add(1)
		go func(id int, h *setagreement.Handle[int]) {
			defer wg.Done()
			var local []time.Duration
			for round := 0; !stop.Load(); round++ {
				t0 := time.Now()
				if _, err := h.Propose(ctx, 1000*round+id); err != nil {
					errs[id] = fmt.Errorf("waits proposer %d: %w", id, err)
					break
				}
				local = append(local, time.Since(t0))
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(id, h)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	// A failed proposer means the cell's numbers are incomplete: fail the
	// whole run rather than archive a silently corrupted table.
	for _, err := range errs {
		if err != nil {
			return waitCell{}, err
		}
	}

	cell := waitCell{rate: float64(len(latencies)) / elapsed.Seconds()}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		cell.p50 = latencies[len(latencies)/2]
		cell.p95 = latencies[len(latencies)*95/100]
	}
	for _, h := range handles {
		s := h.Stats()
		cell.wakeups += s.Wakeups
		cell.spurious += s.SpuriousWakeups
		cell.waitTotal += s.WaitTime
	}
	return cell, nil
}

// asyncTable measures what the async proposal engine is for: the cost of
// in-flight proposals, sync versus async, over one contended arena (k=1,
// up to 8 processes per object). Sync drives each in-flight proposal from
// its own goroutine — the classic shape, one blocked goroutine per
// stalled Propose. Async drives every future from ONE submitter goroutine
// over the arena's shared engine, which parks stalled proposals on their
// objects' notifiers. The goroutines column (peak runtime.NumGoroutine) is
// the headline: at 512 in-flight, sync pays 512+, async a small constant.
// p50/p95 are per-proposal completion latencies; parked-peak is the async
// engine's high-water mark of parked proposals.
func asyncTable(backends []setagreement.MemoryBackend, dur time.Duration) (*report.Table, error) {
	t := report.New("Async proposal engine (arena serving, k=1, ≤8 procs/object)",
		"backend", "mode", "in-flight", "p50", "p95", "proposes/sec", "goroutines", "wakeups", "parked-peak")
	for _, be := range backends {
		for _, inflight := range []int{1, 8, 64, 512} {
			for _, mode := range []string{"sync", "async"} {
				cell, err := measureAsync(be, mode, inflight, dur)
				if err != nil {
					return nil, err
				}
				t.Add(be.String(), mode, inflight,
					cell.p50.Round(time.Microsecond).String(),
					cell.p95.Round(time.Microsecond).String(),
					fmt.Sprintf("%.0f", cell.rate),
					cell.goroutines, cell.wakeups, cell.parkedPeak)
			}
		}
	}
	return t, nil
}

type asyncCell struct {
	p50, p95   time.Duration
	rate       float64
	goroutines int64
	wakeups    int64
	parkedPeak int64
}

// measureAsync runs one cell of the async table: `inflight` concurrently
// outstanding proposals over ceil(inflight/8) arena objects for the
// duration.
func measureAsync(be setagreement.MemoryBackend, mode string, inflight int, dur time.Duration) (asyncCell, error) {
	procs := inflight
	if procs > 8 {
		procs = 8
	}
	objects := (inflight + procs - 1) / procs
	ar, err := setagreement.NewArena[int](8, 1, setagreement.WithObjectOptions(
		setagreement.WithMemoryBackend(be),
		setagreement.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 16)))
	if err != nil {
		return asyncCell{}, err
	}
	handles := make([]*setagreement.Handle[int], 0, inflight)
	for o := 0; o < objects; o++ {
		obj := ar.Object(fmt.Sprintf("tenant-%04d", o))
		for p := 0; p < procs && len(handles) < inflight; p++ {
			h, err := obj.Proc(p)
			if err != nil {
				return asyncCell{}, err
			}
			handles = append(handles, h)
		}
	}
	ctx := context.Background()
	var (
		cell      asyncCell
		latencies []time.Duration
	)
	sample := func() {
		if g := int64(runtime.NumGoroutine()); g > cell.goroutines {
			cell.goroutines = g
		}
		if p := ar.Stats().AsyncParked; p > cell.parkedPeak {
			cell.parkedPeak = p
		}
	}
	start := time.Now()
	switch mode {
	case "sync":
		var (
			stop  atomic.Bool
			wg    sync.WaitGroup
			latMu sync.Mutex
		)
		errs := make([]error, len(handles))
		for i, h := range handles {
			wg.Add(1)
			go func(i int, h *setagreement.Handle[int]) {
				defer wg.Done()
				var local []time.Duration
				for round := 0; !stop.Load(); round++ {
					t0 := time.Now()
					if _, err := h.Propose(ctx, 1000*round+i); err != nil {
						errs[i] = fmt.Errorf("async-table sync proposer %d: %w", i, err)
						return
					}
					local = append(local, time.Since(t0))
				}
				latMu.Lock()
				latencies = append(latencies, local...)
				latMu.Unlock()
			}(i, h)
		}
		for deadline := start.Add(dur); time.Now().Before(deadline); {
			time.Sleep(dur / 50)
			sample()
		}
		stop.Store(true)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return asyncCell{}, err
			}
		}
	case "async":
		// Completions drain through a CompletionQueue in the order they
		// resolve. The previous collector polled futures round-robin in
		// submission order, so a proposal that decided early still waited
		// for the scan to come around — inflating every latency by the poll
		// period and skewing p50 toward the scan order, not decision order.
		q := setagreement.NewCompletionQueue[int]()
		defer q.Close()
		submitted := make([]time.Time, len(handles))
		rounds := make([]int, len(handles))
		vals := make([]int, len(handles))
		for i := range vals {
			vals[i] = i
		}
		now := time.Now()
		for i := range submitted {
			submitted[i] = now
		}
		batch, err := setagreement.SubmitAll(ctx, handles, vals)
		if err != nil {
			return asyncCell{}, fmt.Errorf("async-table submit: %w", err)
		}
		if err := batch.Register(q); err != nil {
			return asyncCell{}, fmt.Errorf("async-table register: %w", err)
		}
		dctx, cancel := context.WithDeadline(ctx, start.Add(dur))
		for {
			c, err := q.Next(dctx)
			if err != nil {
				break // deadline: stop resubmitting, drain below
			}
			i := c.Tag
			if _, err := c.Value(); err != nil {
				cancel()
				return asyncCell{}, fmt.Errorf("async-table future %d: %w", i, err)
			}
			latencies = append(latencies, time.Since(submitted[i]))
			rounds[i]++
			submitted[i] = time.Now()
			fut := handles[i].ProposeAsync(ctx, 1000*rounds[i]+i)
			if err := q.Register(fut, i); err != nil {
				cancel()
				return asyncCell{}, fmt.Errorf("async-table register %d: %w", i, err)
			}
			sample()
		}
		cancel()
		// Drain the tail so no proposal outlives its arena.
		for q.Pending() > 0 {
			c, err := q.Next(ctx)
			if err != nil {
				return asyncCell{}, fmt.Errorf("async-table drain: %w", err)
			}
			if _, err := c.Value(); err != nil {
				return asyncCell{}, fmt.Errorf("async-table drain %d: %w", c.Tag, err)
			}
		}
	default:
		return asyncCell{}, fmt.Errorf("unknown async mode %q", mode)
	}
	elapsed := time.Since(start)
	cell.rate = float64(len(latencies)) / elapsed.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		cell.p50 = latencies[len(latencies)/2]
		cell.p95 = latencies[len(latencies)*95/100]
	}
	cell.wakeups = ar.Stats().Wakeups
	return cell, nil
}

// batchTable measures the batch submission path against the looped
// baseline it amortizes: mode=loop calls ProposeAsync once per handle,
// mode=batch hands the same handles to SubmitAll in one call. Both drain
// through a CompletionQueue. submit-ns/prop is the submitter's cost per
// proposal for the handoff alone — the number BenchmarkSubmitBatch gates
// at ≥2× in the batch's favor at size 64+; p50/p95 are completion
// latencies from the round's submit start; ttfd/ttld are the mean
// time-to-first- and time-to-last-decision per round, the fan-out
// latencies the fanout example prints.
func batchTable(backends []setagreement.MemoryBackend, dur time.Duration) (*report.Table, error) {
	t := report.New("Batch submission (arena serving, k=1, solo handles)",
		"backend", "mode", "batch", "submit-ns/prop", "p50", "p95", "proposes/sec", "ttfd", "ttld")
	for _, be := range backends {
		for _, size := range []int{8, 64, 256} {
			for _, mode := range []string{"loop", "batch"} {
				cell, err := measureBatch(be, mode, size, dur)
				if err != nil {
					return nil, err
				}
				t.Add(be.String(), mode, size,
					fmt.Sprintf("%.0f", cell.submitNS),
					cell.p50.Round(time.Microsecond).String(),
					cell.p95.Round(time.Microsecond).String(),
					fmt.Sprintf("%.0f", cell.rate),
					cell.ttfd.Round(time.Microsecond).String(),
					cell.ttld.Round(time.Microsecond).String())
			}
		}
	}
	return t, nil
}

type batchCell struct {
	submitNS   float64 // submit-side ns per proposal
	p50, p95   time.Duration
	rate       float64
	ttfd, ttld time.Duration
}

// measureBatch runs one cell of the batch table: rounds of `size` solo
// proposals over retained arena handles (one key each, no contention, so
// the numbers isolate the submission and completion machinery) for the
// duration.
func measureBatch(be setagreement.MemoryBackend, mode string, size int, dur time.Duration) (batchCell, error) {
	ar, err := setagreement.NewArena[int](4, 1, setagreement.WithObjectOptions(
		setagreement.WithMemoryBackend(be),
		setagreement.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 16)))
	if err != nil {
		return batchCell{}, err
	}
	handles := make([]*setagreement.Handle[int], size)
	for i := range handles {
		h, err := ar.Object(fmt.Sprintf("slot-%04d", i)).Proc(0)
		if err != nil {
			return batchCell{}, err
		}
		handles[i] = h
	}
	ctx := context.Background()
	vals := make([]int, size)
	futs := make([]*setagreement.Future[int], size)
	var (
		latencies        []time.Duration
		submitNS         int64
		proposals        int
		ttfdSum, ttldSum time.Duration
		rounds           int
	)
	start := time.Now()
	for deadline := start.Add(dur); time.Now().Before(deadline); rounds++ {
		for i := range vals {
			vals[i] = 1000*rounds + i
		}
		q := setagreement.NewCompletionQueue[int]()
		t0 := time.Now()
		if mode == "loop" {
			for i, h := range handles {
				futs[i] = h.ProposeAsync(ctx, vals[i])
			}
			submitNS += time.Since(t0).Nanoseconds()
			for i, f := range futs {
				if err := q.Register(f, i); err != nil {
					return batchCell{}, fmt.Errorf("batch-table register %d: %w", i, err)
				}
			}
		} else {
			b, err := setagreement.SubmitAll(ctx, handles, vals)
			if err != nil {
				return batchCell{}, fmt.Errorf("batch-table submit: %w", err)
			}
			submitNS += time.Since(t0).Nanoseconds()
			if err := b.Register(q); err != nil {
				return batchCell{}, fmt.Errorf("batch-table register: %w", err)
			}
		}
		for seen := 0; seen < size; seen++ {
			c, err := q.Next(ctx)
			if err != nil {
				return batchCell{}, fmt.Errorf("batch-table collect: %w", err)
			}
			if _, err := c.Value(); err != nil {
				return batchCell{}, fmt.Errorf("batch-table proposal %d: %w", c.Tag, err)
			}
			lat := time.Since(t0)
			latencies = append(latencies, lat)
			if seen == 0 {
				ttfdSum += lat
			}
			if seen == size-1 {
				ttldSum += lat
			}
		}
		q.Close()
		proposals += size
	}
	elapsed := time.Since(start)
	var cell batchCell
	cell.submitNS = float64(submitNS) / float64(proposals)
	cell.rate = float64(proposals) / elapsed.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		cell.p50 = latencies[len(latencies)/2]
		cell.p95 = latencies[len(latencies)*95/100]
	}
	if rounds > 0 {
		cell.ttfd = ttfdSum / time.Duration(rounds)
		cell.ttld = ttldSum / time.Duration(rounds)
	}
	return cell, nil
}

// obsTable runs the instrumented counterpart of the batch workload — a
// fan-out of two-contender consensuses submitted through SubmitBatch with
// WithObservability on — and reports the collector's own per-stage latency
// attribution: for every lifecycle stage the obs package histograms
// (submit→first-step, park, wake→decide, submit→decide, decide→delivery,
// plus the synchronous Propose path), its observation count and p50/p95.
// Every stage appears in every run, observed or not, so the rows form a
// stable grid cmd/benchtraj can gate stage latencies against
// (bench/baseline-obs.json); stages the schedule never produced (no parks
// on an uncontended run) report count 0 and zero quantiles.
func obsTable(backends []setagreement.MemoryBackend, dur time.Duration) (*report.Table, error) {
	t := report.New("Per-stage latency attribution (instrumented fan-out, k=1, 2 contenders/key)",
		"backend", "stage", "count", "stage-p50", "stage-p95")
	for _, be := range backends {
		col, err := measureObs(be, dur)
		if err != nil {
			return nil, err
		}
		snap := col.Snapshot(false)
		for _, stage := range []obs.Latency{
			obs.LatSubmitToStart, obs.LatPark, obs.LatWakeToDecide,
			obs.LatSubmitToDecide, obs.LatDecideToDeliver,
			obs.LatWait, obs.LatSyncPropose,
		} {
			hs := snap.Latencies[stage.String()]
			t.Add(be.String(), stage.String(), hs.Count,
				hs.Quantile(0.5).Round(time.Microsecond).String(),
				hs.Quantile(0.95).Round(time.Microsecond).String())
		}
	}
	return t, nil
}

// measureObs drives rounds of 128-key two-contender batch fan-outs (fresh
// keys each round, drained through a CompletionQueue) for the duration,
// then a strand of solo synchronous Proposes, all against one instrumented
// arena, and returns its collector.
func measureObs(be setagreement.MemoryBackend, dur time.Duration) (*obs.Collector, error) {
	col := obs.NewCollector(obs.WithRingSize(1 << 12))
	ar, err := setagreement.NewArena[int](2, 1, setagreement.WithObjectOptions(
		setagreement.WithMemoryBackend(be),
		setagreement.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 16),
		setagreement.WithObservability(col)))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	q := setagreement.NewCompletionQueue[int]()
	defer q.Close()
	const keysPerRound = 128
	ops := make([]setagreement.BatchOp[int], 0, 2*keysPerRound)
	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		ops = ops[:0]
		for i := 0; i < keysPerRound; i++ {
			k := fmt.Sprintf("round-%04d-key-%04d", round, i)
			ops = append(ops,
				setagreement.BatchOp[int]{Key: k, Proc: 0, Value: 2 * i},
				setagreement.BatchOp[int]{Key: k, Proc: 1, Value: 2*i + 1})
		}
		batch, err := ar.SubmitBatch(ctx, ops)
		if err != nil {
			return nil, fmt.Errorf("obs-table submit: %w", err)
		}
		if err := batch.Register(q); err != nil {
			return nil, fmt.Errorf("obs-table register: %w", err)
		}
		for seen := 0; seen < batch.Len(); seen++ {
			c, err := q.Next(ctx)
			if err != nil {
				return nil, fmt.Errorf("obs-table collect: %w", err)
			}
			if _, err := c.Value(); err != nil {
				return nil, fmt.Errorf("obs-table proposal %d: %w", c.Tag, err)
			}
		}
	}
	// The sync strand: the blocking Propose path records wait and
	// sync_propose, which the async fan-out never touches.
	h, err := ar.Object("sync-strand").Proc(0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 256; i++ {
		if _, err := h.Propose(ctx, i); err != nil {
			return nil, fmt.Errorf("obs-table sync propose: %w", err)
		}
	}
	return col, nil
}

// arenaThroughput measures the arena serving path — Object(key) lookups on
// a pre-populated registry — across shard count × object count × goroutine
// count, per backend. At 1 shard every lookup serializes on one RWMutex; on
// multicore hardware throughput scales with the shard count. The same sweep
// is available as a Go benchmark (BenchmarkArenaShards).
func arenaThroughput(backends []setagreement.MemoryBackend, dur time.Duration) (*report.Table, error) {
	t := report.New("Arena serving throughput (Object lookups/sec, higher is better)",
		"backend", "shards", "objects", "clients", "lookups/sec")
	// Shard counts are normalized to what NewArena actually uses (powers of
	// two) and deduplicated, so the table never attributes one
	// configuration's throughput to another.
	var shardCounts []int
	seen := make(map[int]bool)
	for _, req := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		actual := iarena.Shards(req)
		if !seen[actual] {
			seen[actual] = true
			shardCounts = append(shardCounts, actual)
		}
	}
	for _, be := range backends {
		for _, shards := range shardCounts {
			for _, objects := range []int{16, 256} {
				for _, goroutines := range []int{8, 32} {
					ops, err := measureArenaOps(be, shards, objects, goroutines, dur)
					if err != nil {
						return nil, err
					}
					t.Add(be.String(), shards, objects, goroutines, fmt.Sprintf("%.0f", ops))
				}
			}
		}
	}
	return t, nil
}

// measureArenaOps hammers one arena's Object path from g goroutines over
// `objects` pre-created keys for the duration and returns lookups/sec.
// shards must already be normalized (a power of two, as iarena.Shards
// returns) so the reported configuration matches the measured one.
func measureArenaOps(be setagreement.MemoryBackend, shards, objects, g int, dur time.Duration) (float64, error) {
	ar, err := setagreement.NewArena[int](4, 2,
		setagreement.WithShards(shards),
		setagreement.WithObjectOptions(setagreement.WithMemoryBackend(be)))
	if err != nil {
		return 0, err
	}
	keys := make([]string, objects)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant-%04d", i)
		ar.Object(keys[i])
	}
	var (
		stop  atomic.Bool
		total atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var count int64
			for i := w * 17; !stop.Load(); i++ {
				ar.Object(keys[i%objects])
				count++
			}
			total.Add(count)
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds(), nil
}

// backendThroughput measures native shared-memory throughput per backend:
// n goroutines hammer one n-component snapshot (one Update then one Scan per
// round) through each snapshot runtime for the given duration. This is the
// wall-clock counterpart of the simulator's step counts — it shows what the
// substrate costs on real hardware, and how the mutex backend serializes
// where the lock-free one scales.
func backendThroughput(backends []shmem.Backend, dur time.Duration) (*report.Table, error) {
	t := report.New("Native backend throughput (shared-memory ops/sec, higher is better)",
		"backend", "snapshot", "clients", "ops/sec")
	impls := []snapshot.Impl{
		snapshot.ImplAtomic, snapshot.ImplMW, snapshot.ImplSWEmulation, snapshot.ImplDoubleCollect,
	}
	for _, be := range backends {
		for _, impl := range impls {
			for _, n := range []int{2, 8} {
				ops, err := measureBackendOps(be, impl, n, dur)
				if err != nil {
					return nil, err
				}
				t.Add(be.Name(), impl.String(), n, fmt.Sprintf("%.0f", ops))
			}
		}
	}
	return t, nil
}

// measureBackendOps runs n goroutines over one shared n-component snapshot
// realized by impl on the backend and returns logical operations per second.
// Double-collect scans are bounded (TryScan) so sustained updates cannot
// starve the measurement loop; a failed attempt still counts as work done.
func measureBackendOps(be shmem.Backend, impl snapshot.Impl, n int, dur time.Duration) (float64, error) {
	_, wrap, err := snapshot.Materialize(shmem.Spec{Snaps: []int{n}}, impl, n, be)
	if err != nil {
		return 0, err
	}
	var (
		stop  atomic.Bool
		total atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wmem := wrap(id)
			ts, bounded := wmem.(shmem.TryScanner)
			var count int64
			for round := 0; !stop.Load(); round++ {
				wmem.Update(0, id, round&0xfff)
				if bounded {
					ts.TryScan(0, 4)
				} else {
					wmem.Scan(0)
				}
				count += 2
			}
			total.Add(count)
		}(id)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	return float64(total.Load()) / elapsed.Seconds(), nil
}

// fig1Points picks a representative parameter sweep up to n.
func fig1Points(n int) []core.Params {
	var points []core.Params
	for _, p := range []core.Params{
		{N: 3, M: 1, K: 1},
		{N: 4, M: 1, K: 2},
		{N: 5, M: 2, K: 2},
		{N: 6, M: 1, K: 3},
		{N: 6, M: 2, K: 4},
		{N: 7, M: 3, K: 4},
		{N: 8, M: 2, K: 5},
	} {
		if p.N <= max(n, 8) && p.Validate() == nil {
			points = append(points, p)
		}
	}
	return points
}
