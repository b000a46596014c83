package setagreement

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"setagreement/internal/engine"
	"setagreement/internal/shmem"
)

// TestAsyncParkPublishAtEveryBoundary drives a real ProposeAsync while a
// publish lands at each boundary of the engine's park protocol in turn —
// after the parked-set registration, after the wake sources arm, and after
// the final commit CAS. Whatever the interleaving, the proposal must keep
// being woken (no lost wakeup at any boundary), decide its own value solo,
// and leave no wake registration behind. The internal engine test checks
// the same boundaries against a fake proposal; this is the end-to-end form
// over the full Handle/guard/algorithm stack.
func TestAsyncParkPublishAtEveryBoundary(t *testing.T) {
	cases := []struct {
		stage engine.ParkStage
		// wantStage must appear in the observed trace: publishes before the
		// commit CAS force the abandoned path; publishes after it wake a
		// committed park.
		wantStage engine.ParkStage
	}{
		{engine.ParkRegistered, engine.ParkAbandoned},
		{engine.ParkArmed, engine.ParkAbandoned},
		{engine.ParkCommitted, engine.ParkCommitted},
	}
	for _, tc := range cases {
		t.Run(tc.stage.String(), func(t *testing.T) {
			r, err := NewRepeated[int](2, 1,
				WithSnapshot(SnapshotWaitFree),
				WithBackoff(time.Hour, time.Hour, 1))
			if err != nil {
				t.Fatalf("NewRepeated: %v", err)
			}
			h, err := r.Proc(0)
			if err != nil {
				t.Fatalf("Proc: %v", err)
			}
			nt, ok := r.rt.mem.(shmem.Notifier)
			if !ok {
				t.Fatalf("runtime memory %T does not expose shmem.Notifier", r.rt.mem)
			}

			// The hook publishes at the target boundary of EVERY park, so
			// each re-park is immediately contested at the same point and
			// the proposal is driven through the boundary repeatedly until
			// it decides. The poke is safe here: the only proposal is inside
			// park() when the hook runs, so nothing else writes concurrently.
			var mu sync.Mutex
			var trace []engine.ParkStage
			eng := r.rt.eng.get()
			eng.SetParkHook(func(s engine.ParkStage) {
				mu.Lock()
				trace = append(trace, s)
				mu.Unlock()
				if s == tc.stage {
					r.rt.mem.Write(0, r.rt.mem.Read(0))
				}
			})

			fut := h.ProposeAsync(context.Background(), 41)
			select {
			case <-fut.Done():
			case <-time.After(30 * time.Second):
				t.Fatalf("proposal not driven to decision by publishes at %v: %+v", tc.stage, h.Stats())
			}
			got, err := fut.Value()
			if err != nil {
				t.Fatalf("future resolved with %v", err)
			}
			if got != 41 {
				t.Fatalf("solo async decided %d, want its own proposal 41", got)
			}

			mu.Lock()
			sawWant := false
			for _, s := range trace {
				if s == tc.wantStage {
					sawWant = true
				}
			}
			n := len(trace)
			mu.Unlock()
			if n == 0 {
				t.Fatal("proposal decided without parking; the boundary was never exercised")
			}
			if !sawWant {
				t.Fatalf("publish at %v never produced a %v transition (trace length %d)", tc.stage, tc.wantStage, n)
			}

			// Every wake registration and in-flight count drains.
			deadline := time.Now().Add(10 * time.Second)
			for nt.Waiters() != 0 || eng.InFlight() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("Waiters() = %d, InFlight = %d after decision, want 0/0", nt.Waiters(), eng.InFlight())
				}
				goruntime.Gosched()
			}
		})
	}
}

// swallowNotifier delegates to a real notifier but never delivers wakes:
// RegisterWake records the registration and drops fn, modeling a wake
// publish that is never delivered to the parked proposal (a delayed- or
// lost-visibility wake). Revocation still works, so the engine's source
// cleanup is observable.
type swallowNotifier struct {
	inner shmem.Notifier

	mu         sync.Mutex
	registered int // total RegisterWake calls
	pending    int // registrations neither fired (never) nor revoked
}

func (s *swallowNotifier) Version() uint64 { return s.inner.Version() }

func (s *swallowNotifier) AwaitChange(ctx context.Context, v uint64) (int, error) {
	return s.inner.AwaitChange(ctx, v)
}

func (s *swallowNotifier) RegisterWake(v uint64, fn func()) (cancel func()) {
	s.mu.Lock()
	s.registered++
	s.pending++
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.pending--
			s.mu.Unlock()
		})
	}
}

func (s *swallowNotifier) Waiters() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.pending)
}

func (s *swallowNotifier) counts() (registered, pending int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registered, s.pending
}

// TestAsyncCancelParkedUndeliveredWake cancels a parked proposal whose
// wake publish was never delivered: the proposal parks through a notifier
// that swallows its wake registration, a publish advances the real memory
// (so by version the proposal "should" wake, but the notification is
// lost), and then the context is cancelled. Cancellation must not depend
// on the wake path: the future must resolve with the context error, the
// handle must poison, and the engine must revoke the swallowed
// registration on its way out.
func TestAsyncCancelParkedUndeliveredWake(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := NewRepeated[int](2, 1,
		WithSnapshot(SnapshotWaitFree),
		WithBackoff(time.Hour, time.Hour, 1))
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	if h.guard.notifier == nil {
		t.Fatalf("guard has no notifier on %T", r.rt.mem)
	}
	sw := &swallowNotifier{inner: h.guard.notifier}
	h.guard.notifier = sw

	fut := h.ProposeAsync(ctx, 41)
	awaitEngineParked(t, r, 1)
	// The engine counts a park when the task enters its parked set, before
	// it registers the wake: poll for the registration.
	deadline := time.Now().Add(10 * time.Second)
	for {
		reg, pend := sw.counts()
		if reg == 1 && pend == 1 {
			break
		}
		if reg > 1 || pend > 1 || time.Now().After(deadline) {
			t.Fatalf("park registered %d wakes (%d pending), want 1/1 through the swallowing notifier", reg, pend)
		}
		goruntime.Gosched()
	}

	// The wake publish: the real memory's version advances, but the
	// proposal's registration is swallowed — the wake is never delivered,
	// so the proposal stays parked (its timeout cap is an hour).
	r.rt.mem.Write(0, r.rt.mem.Read(0))
	time.Sleep(50 * time.Millisecond)
	if fut.Resolved() {
		_, err := fut.Value()
		t.Fatalf("proposal resolved (%v) despite its wake never being delivered", err)
	}

	cancel()
	select {
	case <-fut.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not resolve the proposal with an undelivered wake")
	}
	if _, err := fut.Value(); !errors.Is(err, context.Canceled) {
		t.Fatalf("future resolved with %v, want context.Canceled", err)
	}
	if _, err := h.Propose(context.Background(), 9); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Propose after cancelled async = %v, want ErrPoisoned", err)
	}

	// The engine revokes the swallowed registration as it resumes the
	// cancelled task: no waiter may leak even when the wake never fired.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, pend := sw.counts(); pend == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, pend := sw.counts()
			t.Fatalf("swallowed wake registration never revoked (%d pending)", pend)
		}
		goruntime.Gosched()
	}
	awaitEngineIdle(t, r)
}
