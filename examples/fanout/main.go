// Command fanout demonstrates the batch proposal API at its intended
// scale: ONE goroutine drives 1,000 keyed agreements to completion over an
// arena. Each key is a consensus (k = 1) between two contenders. The whole
// workload — 2,000 proposals — is submitted through a single SubmitBatch
// call: handles are claimed, futures slab-allocated and the proposals
// handed to the arena's engine, io_uring style, one run-queue transition
// per 16 of them instead of 2,000 ProposeAsync round trips. The engine
// starts deciding the first keys while SubmitBatch is still claiming
// handles for the rest. At any moment hundreds of proposals are in flight,
// contending, parking on their objects' change notifiers and resuming on
// each other's writes, while the process holds no goroutine per proposal.
//
// Completions drain through a CompletionQueue in the order keys decide —
// not submission order — so the collector observes time-to-first-decision
// long before the last key settles, with no head-of-line blocking and no
// per-future select. Both decision times are taken as the collector sees
// them, so they count from the start of SubmitBatch and include it: the
// keys decided while it ran are delivered by the first Next calls.
//
// The run is fully instrumented (WithObservability): after the drain it
// prints the per-stage latency breakdown — submit→first-step, park time,
// wake→decide, decide→delivery — from the collector's histograms. With
// -http the same collector is served live on obshttp's endpoints
// (/metrics, /debug/obs, /debug/pprof/) for the duration of the run;
// combine with -linger to curl them while the workload is in flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"time"

	"setagreement"
	"setagreement/obs"
	"setagreement/obs/obshttp"
)

const keys = 1000

var (
	httpAddr = flag.String("http", "", "serve obshttp endpoints on this address (e.g. localhost:6060)")
	linger   = flag.Duration("linger", 0, "keep serving -http for this long after the run")
)

func main() {
	flag.Parse()

	col := obs.NewCollector(obs.WithRingSize(1 << 14))
	// Two contenders per key, consensus per key, one shared engine.
	ar, err := setagreement.NewArena[string](2, 1,
		setagreement.WithObjectOptions(
			setagreement.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 16),
			setagreement.WithObservability(col),
		),
	)
	if err != nil {
		log.Fatal(err)
	}
	if *httpAddr != "" {
		// Serve the arena-enriched snapshot: collector data plus the
		// arena's live gauges.
		go func() {
			h := obshttp.Handler(obshttp.SnapshotterFunc(ar.Observe))
			log.Printf("serving observability on http://%s/metrics", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, h); err != nil {
				log.Printf("obshttp: %v", err)
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	baseline := runtime.NumGoroutine()

	// Submit phase: one BatchOp per contender, one SubmitBatch for all of
	// them. Consecutive ops on a key share the arena lookup, and the engine
	// receives one batch descriptor per 16 proposals as they are prepared.
	ops := make([]setagreement.BatchOp[string], 0, 2*keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("account-%04d", i)
		ops = append(ops,
			setagreement.BatchOp[string]{Key: k, Proc: 0, Value: "alice@" + k},
			setagreement.BatchOp[string]{Key: k, Proc: 1, Value: "bob@" + k},
		)
	}
	start := time.Now()
	batch, err := ar.SubmitBatch(ctx, ops)
	if err != nil {
		log.Fatal(err)
	}
	submitted := time.Since(start)

	q := setagreement.NewCompletionQueue[string]()
	defer q.Close()
	if err := batch.Register(q); err != nil {
		log.Fatal(err)
	}
	stats := ar.Stats()
	fmt.Printf("submitted %d proposals over %d keys in one SubmitBatch (%v) from one goroutine\n",
		batch.Len(), keys, submitted.Round(10*time.Microsecond))
	fmt.Printf("  in flight: %d, parked: %d, notify waiters: %d\n",
		stats.AsyncInFlight, stats.AsyncParked, stats.NotifyWaiters)
	fmt.Printf("  goroutines: %d (baseline was %d)\n", runtime.NumGoroutine(), baseline)

	// Collect phase: completions arrive in decision order. The decided
	// value of each op is checked against its pair's when the second of the
	// pair lands; first/last decision timestamps fall out of the drain.
	var (
		firstDecision, lastDecision time.Duration
		decided                     = make(map[string]string, keys)
		winners                     = make(map[string]int, 2)
	)
	for seen := 0; seen < batch.Len(); seen++ {
		c, err := q.Next(ctx)
		if err != nil {
			log.Fatal(err)
		}
		v, err := c.Value()
		if err != nil {
			op := ops[c.Tag]
			log.Fatalf("%s/proc %d: %v", op.Key, op.Proc, err)
		}
		if seen == 0 {
			firstDecision = time.Since(start)
		}
		lastDecision = time.Since(start)
		key := ops[c.Tag].Key
		if prev, ok := decided[key]; ok {
			if prev != v {
				log.Fatalf("key %s disagreed: %q vs %q", key, prev, v)
			}
			if v == "alice@"+key {
				winners["alice"]++
			} else {
				winners["bob"]++
			}
		} else {
			decided[key] = v
		}
	}
	stats = ar.Stats()
	fmt.Printf("all %d keys decided and agreed (alice won %d, bob won %d)\n",
		keys, winners["alice"], winners["bob"])
	fmt.Printf("  time to first decision: %v, time to last decision: %v\n",
		firstDecision.Round(10*time.Microsecond), lastDecision.Round(time.Millisecond))
	fmt.Printf("  proposes: %d, wakeups: %d, wait total: %v, mem steps: %d\n",
		stats.Proposes, stats.Wakeups, stats.WaitTime.Round(time.Millisecond), stats.MemSteps)

	// Per-stage latency attribution: where did each proposal's lifetime go?
	snap := ar.Observe(false)
	fmt.Println("per-stage latency (p50 / p95 / count):")
	for _, stage := range []obs.Latency{
		obs.LatSubmitToStart, obs.LatPark, obs.LatWakeToDecide,
		obs.LatSubmitToDecide, obs.LatDecideToDeliver,
	} {
		hs, ok := snap.Latencies[stage.String()]
		if !ok {
			continue
		}
		fmt.Printf("  %-18s %10v %10v %8d\n", stage.String(),
			hs.Quantile(0.5).Round(time.Microsecond),
			hs.Quantile(0.95).Round(time.Microsecond), hs.Count)
	}
	fmt.Printf("  parks: %d, wakes: %d, solo runs: %d, batches expanded: %d, dropped events: %d\n",
		snap.Counters["parks"], snap.Counters["wakes"], snap.Counters["solo_runs"],
		snap.Counters["batches_expanded"], snap.DroppedEvents)

	if *httpAddr != "" && *linger > 0 {
		log.Printf("lingering %v for scrapes of http://%s/metrics", *linger, *httpAddr)
		time.Sleep(*linger)
	}
}
