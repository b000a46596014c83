package engine_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"setagreement/internal/engine"
)

// blockingProposal returns a proposal whose Advance signals entered, then
// blocks until release is closed, and finishes.
func blockingProposal(entered chan<- struct{}, release <-chan struct{}) *testProposal {
	return newTestProposal(func(engine.Wake) (engine.Park, bool) {
		entered <- struct{}{}
		<-release
		return engine.Park{}, false
	})
}

// TestHelpRunsQueuedOnCaller: with the only drain held by a blocked
// proposal, each Help advances the next queued proposal on the caller, in
// FIFO order; Help reports false on an empty queue and after Close; and
// Close waits for a Help in progress, aborting only what never ran.
func TestHelpRunsQueuedOnCaller(t *testing.T) {
	e := engine.New(1)
	entered := make(chan struct{}, 2)
	releaseA := make(chan struct{})
	a := blockingProposal(entered, releaseA)
	e.Submit(a)
	<-entered // the drain is inside a's Advance and holds the only slot

	const k = 8
	var (
		mu    sync.Mutex
		order []int
	)
	ps := make([]*testProposal, k)
	for i := range ps {
		i := i
		ps[i] = newTestProposal(func(engine.Wake) (engine.Park, bool) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return engine.Park{}, false
		})
		e.Submit(ps[i])
	}
	for i := 0; i < k; i++ {
		if !e.Help() {
			t.Fatalf("Help #%d = false with %d proposals queued", i, k-i)
		}
		// Help returned, and the drain is still blocked: the proposal ran
		// on this goroutine.
		mu.Lock()
		got := append([]int(nil), order...)
		mu.Unlock()
		if len(got) != i+1 || got[i] != i {
			t.Fatalf("after Help #%d advanced %v, want 0..%d in FIFO order", i, got, i)
		}
	}
	if e.Help() {
		t.Fatal("Help = true on an empty run queue")
	}

	// b runs on a helper and blocks there; c queues behind it.
	releaseB := make(chan struct{})
	b := blockingProposal(entered, releaseB)
	e.Submit(b)
	var cRan atomic.Bool
	c := newTestProposal(func(engine.Wake) (engine.Park, bool) {
		cRan.Store(true)
		return engine.Park{}, false
	})
	e.Submit(c)
	helped := make(chan bool, 1)
	go func() { helped <- e.Help() }()
	<-entered
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-c.aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never aborted the proposal queued behind the helper")
	}
	close(releaseA) // the drain finishes a and exits
	select {
	case <-closed:
		t.Fatal("Close returned while a Help was still running a proposal")
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseB)
	if !<-helped {
		t.Fatal("the helper's Help = false after running b")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the helper finished")
	}
	if e.Help() {
		t.Fatal("Help = true after Close")
	}
	if cRan.Load() {
		t.Fatal("the aborted proposal was also advanced")
	}
	for i, p := range append(ps, a, b) {
		select {
		case err := <-p.aborted:
			t.Fatalf("advanced proposal %d was also aborted (%v)", i, err)
		default:
		}
	}
	if got := e.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after Close, want 0", got)
	}
}

// TestYieldEvery64Tasks: the engine takes one scheduling point per 64 tasks
// it runs, counted across drains and helpers together.
func TestYieldEvery64Tasks(t *testing.T) {
	const n = 5
	e := engine.New(1)
	var yields atomic.Int64
	e.SetYieldHook(func() { yields.Add(1) })

	var helperRan, ran atomic.Int64
	gate := make(chan struct{})
	var all sync.WaitGroup
	all.Add(64 * n)
	e.Submit(newTestProposal(func(engine.Wake) (engine.Park, bool) {
		<-gate // hold the drain until the helper has run some tasks
		all.Done()
		ran.Add(1)
		return engine.Park{}, false
	}))
	for i := 1; i < 64*n; i++ {
		e.Submit(newTestProposal(func(engine.Wake) (engine.Park, bool) {
			all.Done()
			ran.Add(1)
			return engine.Park{}, false
		}))
	}
	helperDone := make(chan struct{})
	go func() {
		defer close(helperDone)
		for ran.Load() < 64*n {
			if e.Help() {
				if helperRan.Add(1) == 100 {
					close(gate)
				}
				continue
			}
			runtime.Gosched()
		}
	}()
	waitWG(t, &all)
	<-helperDone
	e.Close() // waits for every drain and helper, so the count is final
	if h := helperRan.Load(); h < 100 || h >= 64*n {
		t.Fatalf("helper ran %d of %d tasks, want both drain and helper to run some", h, 64*n)
	}
	if got := yields.Load(); got != n {
		t.Fatalf("yield hook fired %d times over %d tasks, want %d", got, 64*n, n)
	}
}
