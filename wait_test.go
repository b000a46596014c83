package setagreement_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"setagreement"
)

// TestWaitAgrees drives contended one-shot k-set agreement through the
// wait layer on both memory backends, over the atomic snapshot runtime
// (exact solo detection) and the wait-free one (every yield contended), and
// checks the agreement contract end to end: every Propose decides, at most k
// distinct values are decided, and every decision was somebody's proposal.
func TestWaitAgrees(t *testing.T) {
	const n, k = 6, 2
	backends := []setagreement.MemoryBackend{setagreement.BackendLockFree, setagreement.BackendLocked}
	impls := []setagreement.SnapshotImpl{setagreement.SnapshotAtomic, setagreement.SnapshotWaitFree}
	for _, be := range backends {
		for _, impl := range impls {
			t.Run(fmt.Sprintf("%v/%v", be, impl), func(t *testing.T) {
				a, err := setagreement.New[int](n, k,
					setagreement.WithMemoryBackend(be),
					setagreement.WithSnapshot(impl),
					setagreement.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 32),
				)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				decisions := make([]int, n)
				var wg sync.WaitGroup
				for id := 0; id < n; id++ {
					h, err := a.Proc(id)
					if err != nil {
						t.Fatalf("Proc(%d): %v", id, err)
					}
					wg.Add(1)
					go func(id int, h *setagreement.Handle[int]) {
						defer wg.Done()
						d, err := h.Propose(ctx, 100+id)
						if err != nil {
							t.Errorf("propose %d: %v", id, err)
							return
						}
						decisions[id] = d
					}(id, h)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				distinct := make(map[int]bool)
				for id, d := range decisions {
					if d < 100 || d >= 100+n {
						t.Fatalf("process %d decided %d, not a proposed value", id, d)
					}
					distinct[d] = true
				}
				if len(distinct) > k {
					t.Fatalf("%d distinct decisions, want ≤ %d: %v", len(distinct), k, decisions)
				}
			})
		}
	}
}

// TestNotifySoloProposeIsFast is the public face of "a solo process is never
// blocked": with an hour-long wait cap and a yield before every single
// operation, a lone proposer must still decide immediately — its own writes
// are not contention.
func TestNotifySoloProposeIsFast(t *testing.T) {
	t.Run("notify", func(t *testing.T) {
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
			if _, err := h.Propose(ctx, i); err != nil {
				t.Fatalf("solo propose %d did not run to completion: %v", i, err)
			}
		}
		if s := h.Stats(); s.Wakeups != 0 || s.WaitTime != 0 {
			t.Fatalf("solo proposer recorded %d wakeups and %v of waiting", s.Wakeups, s.WaitTime)
		}
	})
}

// TestContentionHammer is the multi-waiter race test: eight proposers over
// one repeated object on both backends, sync and async, every proposer
// crossing yield points under WithBackoff. Under -race it exercises every
// wait and wake path; at the end each round must have decided at most k
// distinct values.
func TestContentionHammer(t *testing.T) {
	const n, k, rounds = 8, 2, 30
	for _, be := range []setagreement.MemoryBackend{setagreement.BackendLockFree, setagreement.BackendLocked} {
		for _, async := range []bool{false, true} {
			mode := "sync"
			if async {
				mode = "async"
			}
			t.Run(fmt.Sprintf("%v/%s", be, mode), func(t *testing.T) {
				r, err := setagreement.NewRepeated[int](n, k,
					setagreement.WithMemoryBackend(be),
					setagreement.WithBackoff(50*time.Microsecond, 2*time.Millisecond, 8))
				if err != nil {
					t.Fatalf("NewRepeated: %v", err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				handles := make([]*setagreement.Handle[int], n)
				for id := range handles {
					if handles[id], err = r.Proc(id); err != nil {
						t.Fatalf("Proc(%d): %v", id, err)
					}
				}
				decisions := make([][]int, n)
				var wg sync.WaitGroup
				for id, h := range handles {
					wg.Add(1)
					go func(id int, h *setagreement.Handle[int]) {
						defer wg.Done()
						for i := 0; i < rounds; i++ {
							var d int
							var err error
							if async {
								d, err = h.ProposeAsync(ctx, id*rounds+i).Value()
							} else {
								d, err = h.Propose(ctx, id*rounds+i)
							}
							if err != nil {
								t.Errorf("proposer %d round %d: %v", id, i, err)
								return
							}
							decisions[id] = append(decisions[id], d)
						}
					}(id, h)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				for i := 0; i < rounds; i++ {
					distinct := make(map[int]bool)
					for id := range decisions {
						distinct[decisions[id][i]] = true
					}
					if len(distinct) > k {
						t.Fatalf("round %d: %d distinct decisions, want ≤ %d", i, len(distinct), k)
					}
				}
			})
		}
	}
}
