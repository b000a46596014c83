package engine_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"setagreement/internal/engine"
	"setagreement/internal/shmem"
)

// testProposal adapts a closure to engine.Proposal and records aborts.
type testProposal struct {
	advance func(w engine.Wake) (engine.Park, bool)
	aborted chan error
}

func newTestProposal(advance func(w engine.Wake) (engine.Park, bool)) *testProposal {
	return &testProposal{advance: advance, aborted: make(chan error, 1)}
}

func (p *testProposal) Advance(w engine.Wake) (engine.Park, bool) { return p.advance(w) }
func (p *testProposal) Abort(err error)                           { p.aborted <- err }

func awaitParked(t *testing.T, e *engine.Engine, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Parked() < want {
		if time.Now().After(deadline) {
			t.Fatalf("engine never reached %d parked proposals (have %d)", want, e.Parked())
		}
		runtime.Gosched()
	}
}

func TestEngineRunsToCompletion(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	const proposals = 32
	var done sync.WaitGroup
	done.Add(proposals)
	for i := 0; i < proposals; i++ {
		steps := 0
		e.Submit(newTestProposal(func(w engine.Wake) (engine.Park, bool) {
			if w.Reason != engine.WakeStart {
				t.Errorf("non-parking proposal woken with reason %v", w.Reason)
			}
			steps++
			done.Done()
			return engine.Park{}, false
		}))
	}
	waitWG(t, &done)
	deadline := time.Now().Add(10 * time.Second)
	for e.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight() = %d after every proposal finished", e.InFlight())
		}
		runtime.Gosched()
	}
}

func TestEngineNotifyWakeResumesPark(t *testing.T) {
	e := engine.New(1)
	defer e.Close()
	var b shmem.Broadcast
	resumed := make(chan engine.Wake, 1)
	e.Submit(newTestProposal(func(w engine.Wake) (engine.Park, bool) {
		if w.Reason == engine.WakeStart {
			return engine.Park{Notifier: &b, Version: b.Version(), Cap: time.Hour}, true
		}
		resumed <- w
		return engine.Park{}, false
	}))
	awaitParked(t, e, 1)
	// Parked() counts a proposal once it enters the parked set, before its
	// wake is registered on the notifier; wait for the registration too.
	deadline := time.Now().Add(10 * time.Second)
	for b.Waiters() < 1 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := b.Waiters(); got != 1 {
		t.Fatalf("Waiters() = %d with one parked proposal, want 1", got)
	}
	b.Publish()
	select {
	case w := <-resumed:
		if w.Reason != engine.WakeNotify {
			t.Fatalf("resumed with reason %v, want notify", w.Reason)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publish did not resume the parked proposal")
	}
	if got := b.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d after resume, want 0", got)
	}
}

func TestEngineTimeoutResumesPark(t *testing.T) {
	e := engine.New(1)
	defer e.Close()
	var b shmem.Broadcast
	resumed := make(chan engine.Wake, 1)
	start := time.Now()
	e.Submit(newTestProposal(func(w engine.Wake) (engine.Park, bool) {
		if w.Reason == engine.WakeStart {
			return engine.Park{Notifier: &b, Version: b.Version(), Cap: 20 * time.Millisecond}, true
		}
		resumed <- w
		return engine.Park{}, false
	}))
	select {
	case w := <-resumed:
		if w.Reason != engine.WakeTimeout {
			t.Fatalf("resumed with reason %v, want timeout", w.Reason)
		}
		if w.Waited <= 0 {
			t.Fatalf("Waited = %v for a real park", w.Waited)
		}
		if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
			t.Fatalf("timeout fired after %v, before the cap", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cap did not resume the parked proposal")
	}
	// The losing wake source (the notifier registration) must be revoked.
	deadline := time.Now().Add(10 * time.Second)
	for b.Waiters() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Waiters() = %d after a timeout resume; registration leaked", b.Waiters())
		}
		runtime.Gosched()
	}
}

func TestEngineCancelResumesParkPromptly(t *testing.T) {
	e := engine.New(1)
	defer e.Close()
	var b shmem.Broadcast
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	finished := make(chan struct{})
	e.Submit(newTestProposal(func(w engine.Wake) (engine.Park, bool) {
		if w.Reason == engine.WakeStart {
			return engine.Park{Notifier: &b, Version: b.Version(), Cap: time.Hour, Ctx: ctx}, true
		}
		if w.Reason != engine.WakeCancel {
			t.Errorf("resumed with reason %v, want cancel", w.Reason)
		}
		close(finished)
		return engine.Park{}, false
	}))
	awaitParked(t, e, 1)
	cancel()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not resume the parked proposal (an hour-long cap would)")
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.Waiters() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Waiters() = %d after a cancelled park; registration leaked", b.Waiters())
		}
		runtime.Gosched()
	}
}

func TestEngineCloseAbortsParkedProposals(t *testing.T) {
	e := engine.New(2)
	var b shmem.Broadcast
	const proposals = 8
	props := make([]*testProposal, proposals)
	for i := range props {
		p := newTestProposal(func(w engine.Wake) (engine.Park, bool) {
			if w.Reason != engine.WakeStart {
				t.Errorf("parked proposal advanced (reason %v) on a closing engine", w.Reason)
			}
			return engine.Park{Notifier: &b, Version: b.Version(), Cap: time.Hour}, true
		})
		props[i] = p
		e.Submit(p)
	}
	awaitParked(t, e, proposals)
	e.Close()
	for i, p := range props {
		select {
		case err := <-p.aborted:
			if !errors.Is(err, engine.ErrClosed) {
				t.Fatalf("proposal %d aborted with %v, want ErrClosed", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("proposal %d not aborted by Close", i)
		}
	}
	if got := e.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after Close, want 0", got)
	}
	if got := e.Parked(); got != 0 {
		t.Fatalf("Parked() = %d after Close, want 0", got)
	}
	if got := b.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d after Close, want 0 (registrations must be revoked)", got)
	}
	// Submitting after Close aborts immediately.
	p := newTestProposal(func(engine.Wake) (engine.Park, bool) {
		t.Error("proposal advanced on a closed engine")
		return engine.Park{}, false
	})
	e.Submit(p)
	select {
	case err := <-p.aborted:
		if !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("post-Close submit aborted with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-Close submit not aborted")
	}
}

func TestEngineGoroutineEconomy(t *testing.T) {
	// The reason the engine exists: hundreds of parked proposals must not
	// pin goroutines. 512 proposals park for an hour on a 4-worker engine;
	// the process's goroutine count stays within a small constant of the
	// baseline, where 512 blocked Proposes would each hold one.
	const proposals, workers = 512, 4
	baseline := runtime.NumGoroutine()
	e := engine.New(workers)
	defer e.Close()
	var b shmem.Broadcast
	for i := 0; i < proposals; i++ {
		e.Submit(newTestProposal(func(w engine.Wake) (engine.Park, bool) {
			return engine.Park{Notifier: &b, Version: b.Version() + 1000, Cap: time.Hour}, true
		}))
	}
	awaitParked(t, e, proposals)
	if got := runtime.NumGoroutine(); got > baseline+workers+8 {
		t.Fatalf("NumGoroutine = %d with %d parked proposals (baseline %d, workers %d); parked work is pinning goroutines",
			got, proposals, baseline, workers)
	}
	if got := e.InFlight(); got != proposals {
		t.Fatalf("InFlight() = %d, want %d", got, proposals)
	}
}

func TestEngineParkWakeChurn(t *testing.T) {
	// Race coverage: proposals that repeatedly park race a publisher
	// hammering the notifier, so notifier wakes, timeouts and re-parks
	// interleave every way. Every proposal must still finish.
	e := engine.New(4)
	defer e.Close()
	var b shmem.Broadcast
	const proposals, parks = 32, 20
	var done sync.WaitGroup
	done.Add(proposals)
	var finished atomic.Int64
	for i := 0; i < proposals; i++ {
		remaining := parks
		e.Submit(newTestProposal(func(w engine.Wake) (engine.Park, bool) {
			if remaining == 0 {
				finished.Add(1)
				done.Done()
				return engine.Park{}, false
			}
			remaining--
			return engine.Park{Notifier: &b, Version: b.Version(), Cap: time.Millisecond}, true
		}))
	}
	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Publish()
			}
		}
	}()
	waitWG(t, &done)
	close(stop)
	pub.Wait()
	if got := finished.Load(); got != proposals {
		t.Fatalf("%d proposals finished, want %d", got, proposals)
	}
}

func waitWG(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting")
	}
}
