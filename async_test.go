package setagreement_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"setagreement"
)

// TestProposeAsyncAgreement drives contended k-set agreement entirely
// through futures on both memory backends — the async face of
// TestWaitAgrees — and checks the same contract: every proposal
// resolves, at most k distinct values are decided, and every decision was
// somebody's proposal.
func TestProposeAsyncAgreement(t *testing.T) {
	const n, k = 6, 2
	for _, be := range []setagreement.MemoryBackend{setagreement.BackendLockFree, setagreement.BackendLocked} {
		t.Run(be.String(), func(t *testing.T) {
			a, err := setagreement.New[int](n, k,
				setagreement.WithMemoryBackend(be),
				setagreement.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 32),
			)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			futs := make([]*setagreement.Future[int], n)
			for id := 0; id < n; id++ {
				h, err := a.Proc(id)
				if err != nil {
					t.Fatalf("Proc(%d): %v", id, err)
				}
				futs[id] = h.ProposeAsync(ctx, 100+id)
			}
			distinct := make(map[int]bool)
			for id, fut := range futs {
				d, err := fut.Value()
				if err != nil {
					t.Fatalf("proposal %d: %v", id, err)
				}
				if d < 100 || d >= 100+n {
					t.Fatalf("process %d decided %d, not a proposed value", id, d)
				}
				distinct[d] = true
			}
			if len(distinct) > k {
				t.Fatalf("%d distinct decisions, want ≤ %d", len(distinct), k)
			}
		})
	}
}

// TestMixedSyncAsyncAgreement splits one contended object between blocking
// Proposes and futures: the two drivers run the same machine over the same
// memory, so the agreement contract must hold across the mix — on both
// backends.
func TestMixedSyncAsyncAgreement(t *testing.T) {
	const n, k = 6, 2
	for _, be := range []setagreement.MemoryBackend{setagreement.BackendLockFree, setagreement.BackendLocked} {
		t.Run(be.String(), func(t *testing.T) {
			r, err := setagreement.NewRepeated[int](n, k,
				setagreement.WithMemoryBackend(be),
				setagreement.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 32),
			)
			if err != nil {
				t.Fatalf("NewRepeated: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			const rounds = 3
			decisions := make([][]int, n) // decisions[id][round]
			var wg sync.WaitGroup
			for id := 0; id < n; id++ {
				h, err := r.Proc(id)
				if err != nil {
					t.Fatalf("Proc(%d): %v", id, err)
				}
				decisions[id] = make([]int, rounds)
				wg.Add(1)
				go func(id int, h *setagreement.Handle[int]) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						v := 1000*round + 100 + id
						var d int
						var err error
						if id%2 == 0 {
							d, err = h.Propose(ctx, v)
						} else {
							d, err = h.ProposeAsync(ctx, v).Value()
						}
						if err != nil {
							t.Errorf("proc %d round %d: %v", id, round, err)
							return
						}
						decisions[id][round] = d
					}
				}(id, h)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for round := 0; round < rounds; round++ {
				distinct := make(map[int]bool)
				for id := 0; id < n; id++ {
					d := decisions[id][round]
					if d/1000 != round || d%1000 < 100 || d%1000 >= 100+n {
						t.Fatalf("round %d: process %d decided %d, not a round-%d proposal", round, id, d, round)
					}
					distinct[d] = true
				}
				if len(distinct) > k {
					t.Fatalf("round %d: %d distinct decisions, want ≤ %d", round, len(distinct), k)
				}
			}
		})
	}
}

// TestProposeAsyncLifecycle pins the handle lifecycle through the async
// entry point: in-flight exclusion, one-shot exhaustion, release, and
// cancel-before-start poisoning.
func TestProposeAsyncLifecycle(t *testing.T) {
	ctx := context.Background()

	t.Run("InUseWhileAsyncInFlight", func(t *testing.T) {
		// An hour-long blind backoff keeps the async proposal in flight
		// (parked on its timer) while the lifecycle is probed.
		r, err := setagreement.NewRepeated[int](2, 1,
			setagreement.WithBackoff(time.Hour, time.Hour, 1),
			setagreement.WithSnapshot(setagreement.SnapshotWaitFree))
		if err != nil {
			t.Fatalf("NewRepeated: %v", err)
		}
		h, err := r.Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		fut := h.ProposeAsync(cctx, 1)
		if fut.Resolved() {
			_, err := fut.Value()
			t.Fatalf("hour-capped proposal resolved immediately: %v", err)
		}
		if _, err := h.Propose(ctx, 2); !errors.Is(err, setagreement.ErrInUse) {
			t.Fatalf("sync Propose during async = %v, want ErrInUse", err)
		}
		if _, err := h.ProposeAsync(ctx, 3).Value(); !errors.Is(err, setagreement.ErrInUse) {
			t.Fatalf("second ProposeAsync during async = %v, want ErrInUse", err)
		}
		if err := h.Release(); !errors.Is(err, setagreement.ErrInUse) {
			t.Fatalf("Release during async = %v, want ErrInUse", err)
		}
		cancel()
		if _, err := fut.Value(); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled in-flight async = %v, want context.Canceled", err)
		}
	})

	t.Run("OneShotExhaustion", func(t *testing.T) {
		a, err := setagreement.New[string](2, 1)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		h, err := a.Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		d, err := h.ProposeAsync(ctx, "solo").Value()
		if err != nil {
			t.Fatalf("async one-shot: %v", err)
		}
		if d != "solo" {
			t.Fatalf("solo async decided %q", d)
		}
		if _, err := h.ProposeAsync(ctx, "again").Value(); !errors.Is(err, setagreement.ErrAlreadyProposed) {
			t.Fatalf("second async on one-shot = %v, want ErrAlreadyProposed", err)
		}
		if _, err := h.Propose(ctx, "again"); !errors.Is(err, setagreement.ErrAlreadyProposed) {
			t.Fatalf("sync after async decision = %v, want ErrAlreadyProposed", err)
		}
	})

	t.Run("Released", func(t *testing.T) {
		ar, err := setagreement.NewArena[int](2, 1)
		if err != nil {
			t.Fatalf("NewArena: %v", err)
		}
		h, err := ar.Object("lease").Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		if err := h.Release(); err != nil {
			t.Fatalf("Release: %v", err)
		}
		if _, err := h.ProposeAsync(ctx, 1).Value(); !errors.Is(err, setagreement.ErrReleased) {
			t.Fatalf("ProposeAsync after Release = %v, want ErrReleased", err)
		}
	})

	t.Run("CancelBeforeStart", func(t *testing.T) {
		r, err := setagreement.NewRepeated[int](2, 1)
		if err != nil {
			t.Fatalf("NewRepeated: %v", err)
		}
		h, err := r.Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		dead, cancel := context.WithCancel(ctx)
		cancel()
		fut := h.ProposeAsync(dead, 1)
		if !fut.Resolved() {
			t.Fatal("dead-context submission did not resolve immediately")
		}
		if _, err := fut.Value(); !errors.Is(err, context.Canceled) {
			t.Fatalf("dead-context async = %v, want context.Canceled", err)
		}
		// Poisoned exactly like a cancelled sync Propose.
		if _, err := h.Propose(ctx, 2); !errors.Is(err, setagreement.ErrPoisoned) {
			t.Fatalf("Propose after cancelled async = %v, want ErrPoisoned", err)
		}
	})
}

// TestFutureValueIdempotent: Done, Value and Err agree and repeat forever,
// from multiple goroutines.
func TestFutureValueIdempotent(t *testing.T) {
	a, err := setagreement.New[int](2, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := a.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	fut := h.ProposeAsync(context.Background(), 7)
	<-fut.Done()
	if !fut.Resolved() {
		t.Fatal("Resolved() = false after Done closed")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d, err := fut.Value()
				if d != 7 || err != nil {
					t.Errorf("Value() = (%d, %v), want (7, nil)", d, err)
					return
				}
				if err := fut.Err(); err != nil {
					t.Errorf("Err() = %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNotifySoloAsyncNeverParks is the async face of "notify never blocks
// a solo process": with exact solo detection (the atomic runtime), an
// hour-long cap and a yield before every operation, a lone ProposeAsync
// still resolves immediately — its own writes are not contention, so the
// engine never parks it.
func TestNotifySoloAsyncNeverParks(t *testing.T) {
	r, err := setagreement.NewRepeated[int](2, 1,
		setagreement.WithBackoff(time.Hour, time.Hour, 1))
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := h.ProposeAsync(ctx, i).Value(); err != nil {
			t.Fatalf("solo async propose %d did not run to completion: %v", i, err)
		}
	}
	s := h.Stats()
	if s.Wakeups != 0 {
		t.Fatalf("solo async proposer recorded %d wakeups", s.Wakeups)
	}
	if s.WaitTime != 0 {
		t.Fatalf("solo async proposer was parked for %v", s.WaitTime)
	}
}

// TestAsyncStatsMonitorConsistency is the Stats race-surface satellite: a
// monitor hammers Handle.Stats while async and sync proposals run, and
// every cumulative counter must read monotone non-decreasing across
// snapshots (each field is an exact atomic; pairs are ordered WaitTime
// before Wakeups). Run under -race in CI's wait-subsystem step.
func TestAsyncStatsMonitorConsistency(t *testing.T) {
	const n = 4
	r, err := setagreement.NewRepeated[int](n, 1,
		setagreement.WithBackoff(50*time.Microsecond, time.Millisecond, 8))
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	handles := make([]*setagreement.Handle[int], n)
	for id := range handles {
		if handles[id], err = r.Proc(id); err != nil {
			t.Fatalf("Proc(%d): %v", id, err)
		}
	}
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		prev := make([]setagreement.Stats, n)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, h := range handles {
				s := h.Stats()
				p := prev[i]
				if s.Proposes < p.Proposes || s.Steps < p.Steps || s.Scans < p.Scans ||
					s.WaitTime < p.WaitTime || s.Wakeups < p.Wakeups ||
					s.SpuriousWakeups < p.SpuriousWakeups || s.MemSteps < p.MemSteps ||
					s.CASRetries < p.CASRetries {
					t.Errorf("stats went backwards on handle %d:\n  was %+v\n  now %+v", i, p, s)
					return
				}
				prev[i] = s
			}
		}
	}()
	var wg sync.WaitGroup
	for id, h := range handles {
		wg.Add(1)
		go func(id int, h *setagreement.Handle[int]) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				var err error
				if round%2 == 0 {
					_, err = h.ProposeAsync(ctx, 100*round+id).Value()
				} else {
					_, err = h.Propose(ctx, 100*round+id)
				}
				if err != nil {
					t.Errorf("proc %d round %d: %v", id, round, err)
					return
				}
			}
		}(id, h)
	}
	wg.Wait()
	close(stop)
	monWG.Wait()
}

// TestArenaAsyncFanout: one goroutine drives many keyed agreements to
// completion through the arena's shared engine — the serving shape
// examples/fanout demonstrates — and the arena roll-up accounts for all
// of them.
func TestArenaAsyncFanout(t *testing.T) {
	const keys = 100
	ar, err := setagreement.NewArena[string](4, 1,
		setagreement.WithObjectOptions(setagreement.WithBackoff(100*time.Microsecond, 10*time.Millisecond, 64)))
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	futs := make(map[string]*setagreement.Future[string], keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("order-%03d", i)
		h, err := ar.Object(k).Proc(0)
		if err != nil {
			t.Fatalf("Proc(%s): %v", k, err)
		}
		futs[k] = h.ProposeAsync(ctx, "winner:"+k)
	}
	for k, fut := range futs {
		d, err := fut.Value()
		if err != nil {
			t.Fatalf("key %s: %v", k, err)
		}
		if d != "winner:"+k {
			t.Fatalf("key %s decided %q", k, d)
		}
	}
	s := ar.Stats()
	if s.Proposes != keys {
		t.Fatalf("arena Proposes = %d after %d async proposals, want %d", s.Proposes, keys, keys)
	}
	// The engine retires a task just after its Advance resolves the
	// future, so the gauges can trail the last resolution for a moment.
	deadline := time.Now().Add(10 * time.Second)
	for s.AsyncInFlight != 0 || s.AsyncParked != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gauges nonzero after completion: %+v", s)
		}
		runtime.Gosched()
		s = ar.Stats()
	}
}
