package engine_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"setagreement/internal/engine"
)

func TestSubmitBatchRunsAll(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	const proposals = 64
	var done sync.WaitGroup
	done.Add(proposals)
	ps := make([]engine.Proposal, proposals)
	for i := range ps {
		ps[i] = newTestProposal(func(w engine.Wake) (engine.Park, bool) {
			if w.Reason != engine.WakeStart {
				t.Errorf("batch proposal first-advanced with reason %v", w.Reason)
			}
			done.Done()
			return engine.Park{}, false
		})
	}
	e.SubmitBatch(ps)
	waitWG(t, &done)
	deadline := time.Now().Add(10 * time.Second)
	for e.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight() = %d after the whole batch finished", e.InFlight())
		}
		runtime.Gosched()
	}
}

func TestSubmitBatchEmptyIsNoOp(t *testing.T) {
	e := engine.New(1)
	defer e.Close()
	e.SubmitBatch(nil)
	e.SubmitBatch([]engine.Proposal{})
	if got := e.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after empty batches, want 0", got)
	}
}

func TestSubmitBatchPreservesOrderBeyondWorkers(t *testing.T) {
	// With one worker held by a gate, the rest of the batch must drain in
	// submission order: the run queue is FIFO.
	e := engine.New(1)
	defer e.Close()
	gate := make(chan struct{})
	var order []int
	var mu sync.Mutex
	var done sync.WaitGroup
	const tail = 8
	done.Add(tail)
	ps := make([]engine.Proposal, 0, tail+1)
	ps = append(ps, newTestProposal(func(engine.Wake) (engine.Park, bool) {
		<-gate
		return engine.Park{}, false
	}))
	for i := 0; i < tail; i++ {
		i := i
		ps = append(ps, newTestProposal(func(engine.Wake) (engine.Park, bool) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			done.Done()
			return engine.Park{}, false
		}))
	}
	e.SubmitBatch(ps)
	close(gate)
	waitWG(t, &done)
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("batch drained out of order: position %d ran proposal %d (order %v)", i, got, order)
		}
	}
}

// TestSubmitBatchFIFOAcrossDescriptors: two batches submitted back to back
// to a one-worker engine run in submission order, 0 through 5, whether the
// first descriptor went straight to a drain or waited in the run queue. An
// expansion that appended its tail behind the second descriptor would run
// [0 4 1 2 3 5].
func TestSubmitBatchFIFOAcrossDescriptors(t *testing.T) {
	for _, held := range []bool{false, true} {
		name := "handed"
		if held {
			name = "queued"
		}
		t.Run(name, func(t *testing.T) {
			// One processor keeps a freshly spawned drain from running
			// before the second SubmitBatch, so the first descriptor is
			// expanded only after the second one is queued.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			e := engine.New(1)
			defer e.Close()
			gate := make(chan struct{})
			if held {
				// Hold the only worker, so both descriptors queue behind it.
				started := make(chan struct{})
				e.Submit(newTestProposal(func(engine.Wake) (engine.Park, bool) {
					close(started)
					<-gate
					return engine.Park{}, false
				}))
				<-started
			}
			var (
				mu    sync.Mutex
				order []int
				done  sync.WaitGroup
			)
			batch := func(lo, hi int) []engine.Proposal {
				ps := make([]engine.Proposal, 0, hi-lo)
				for i := lo; i < hi; i++ {
					i := i
					ps = append(ps, newTestProposal(func(engine.Wake) (engine.Park, bool) {
						mu.Lock()
						order = append(order, i)
						mu.Unlock()
						done.Done()
						return engine.Park{}, false
					}))
				}
				return ps
			}
			done.Add(6)
			e.SubmitBatch(batch(0, 4))
			e.SubmitBatch(batch(4, 6))
			close(gate)
			waitWG(t, &done)
			mu.Lock()
			defer mu.Unlock()
			for i, got := range order {
				if got != i {
					t.Fatalf("proposals ran in order %v, want 0 through 5", order)
				}
			}
		})
	}
}

func TestSubmitBatchClosedAbortsAll(t *testing.T) {
	e := engine.New(2)
	e.Close()
	const proposals = 4
	ps := make([]engine.Proposal, proposals)
	aborted := make([]*testProposal, proposals)
	for i := range ps {
		p := newTestProposal(func(engine.Wake) (engine.Park, bool) {
			t.Error("proposal advanced on a closed engine")
			return engine.Park{}, false
		})
		ps[i], aborted[i] = p, p
	}
	e.SubmitBatch(ps)
	for i, p := range aborted {
		select {
		case err := <-p.aborted:
			if !errors.Is(err, engine.ErrClosed) {
				t.Fatalf("proposal %d aborted with %v, want ErrClosed", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("proposal %d not aborted by closed-engine SubmitBatch", i)
		}
	}
	if got := e.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after closed-engine batch, want 0", got)
	}
}

// countProposal is the cheapest possible proposal, for submit-side
// benchmarks: it finishes on its first advance.
type countProposal struct{ done *atomic.Int64 }

func (p *countProposal) Advance(engine.Wake) (engine.Park, bool) {
	p.done.Add(1)
	return engine.Park{}, false
}
func (p *countProposal) Abort(error) { p.done.Add(1) }

// BenchmarkEngineSubmit measures the engine-side submit cost per proposal:
// one Submit call per proposal (mode=loop) against one SubmitBatch for the
// whole slice (mode=batch), at batch sizes around the amortization target.
// The proposals are no-ops, so the numbers isolate the handoff itself —
// task allocation, the in-flight counter and the run-queue lock.
func BenchmarkEngineSubmit(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		for _, mode := range []string{"loop", "batch"} {
			b.Run(mode+"/size="+itoa(size), func(b *testing.B) {
				e := engine.New(4)
				defer e.Close()
				var done atomic.Int64
				ps := make([]engine.Proposal, size)
				for i := range ps {
					ps[i] = &countProposal{done: &done}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "loop" {
						for _, p := range ps {
							e.Submit(p)
						}
					} else {
						e.SubmitBatch(ps)
					}
					b.StopTimer()
					want := int64(i+1) * int64(size)
					for done.Load() < want {
						runtime.Gosched()
					}
					b.StartTimer()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/proposal")
			})
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
