package setagreement

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"setagreement/internal/shmem"
)

// newParkedAsync builds the deterministic parked state the whitebox tests
// drive: a repeated-agreement object over a register-implemented snapshot
// (solo detection is conservative there — every yield is treated as
// contended), an hour-long cap and a yield before every operation, so a
// ProposeAsync parks at its first yield point, before touching shared
// memory, and stays parked until something wakes it.
func newParkedAsync(t *testing.T, ctx context.Context) (*Repeated[int], *Handle[int], *Future[int]) {
	t.Helper()
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
	fut := h.ProposeAsync(ctx, 41)
	awaitEngineParked(t, r, 1)
	if fut.Resolved() {
		_, err := fut.Value()
		t.Fatalf("proposal resolved (%v) instead of parking", err)
	}
	return r, h, fut
}

func awaitEngineParked(t *testing.T, r *Repeated[int], want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if e := r.rt.eng.peek(); e != nil && e.Parked() >= want {
			return
		}
		if time.Now().After(deadline) {
			var have int64
			if e := r.rt.eng.peek(); e != nil {
				have = e.Parked()
			}
			t.Fatalf("engine never reached %d parked proposals (have %d)", want, have)
		}
		goruntime.Gosched()
	}
}

// awaitEngineIdle polls until r's engine has nothing in flight: the engine
// retires a task just after the task's Advance resolves its future, so a
// count sampled as the future resolves may still include it.
func awaitEngineIdle(t *testing.T, r *Repeated[int]) {
	t.Helper()
	e := r.rt.eng.peek()
	deadline := time.Now().Add(10 * time.Second)
	for e.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine InFlight = %d after resolution", e.InFlight())
		}
		goruntime.Gosched()
	}
}

// TestAsyncCancelWhileParked is the satellite's core: cancelling a parked
// proposal's context must resolve its future promptly with the context
// error, poison the handle exactly like cancelling a blocking Propose, and
// leave no wait registered on the object's memory.
func TestAsyncCancelWhileParked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, h, fut := newParkedAsync(t, ctx)
	nt, ok := r.rt.mem.(shmem.Notifier)
	if !ok {
		t.Fatalf("runtime memory %T does not expose shmem.Notifier", r.rt.mem)
	}
	// The engine counts a park before it registers the park's wake, so the
	// registration is awaited rather than sampled.
	awaitMemWaiters(t, nt, 1)
	if got := nt.Waiters(); got != 1 {
		t.Fatalf("Waiters() = %d while parked, want 1", got)
	}
	start := time.Now()
	cancel()
	select {
	case <-fut.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not resolve the parked proposal (its cap is an hour)")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if _, err := fut.Value(); !errors.Is(err, context.Canceled) {
		t.Fatalf("future resolved with %v, want context.Canceled", err)
	}
	if got := nt.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d after cancellation, want 0 (park registration leaked)", got)
	}
	if _, err := h.Propose(context.Background(), 9); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Propose after cancelled async = %v, want ErrPoisoned", err)
	}
	awaitEngineIdle(t, r)
}

// TestAsyncEngineShutdownWithParked: Close on an engine holding parked
// proposals resolves their futures with ErrEngineClosed, poisons the
// handles (their half-written state cannot be resumed) and revokes every
// wake registration.
func TestAsyncEngineShutdownWithParked(t *testing.T) {
	ctx := context.Background()
	r, h, fut := newParkedAsync(t, ctx)
	nt, ok := r.rt.mem.(shmem.Notifier)
	if !ok {
		t.Fatalf("runtime memory %T does not expose shmem.Notifier", r.rt.mem)
	}
	r.rt.eng.get().Close()
	select {
	case <-fut.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("engine Close did not resolve the parked proposal")
	}
	if _, err := fut.Value(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("future resolved with %v, want ErrEngineClosed", err)
	}
	if got := nt.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d after engine shutdown, want 0", got)
	}
	if _, err := h.Propose(ctx, 9); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Propose after engine shutdown = %v, want ErrPoisoned", err)
	}
	// A poisoned handle's later ProposeAsync fails the same way, through
	// the future, without reaching the closed engine.
	if _, err := h.ProposeAsync(ctx, 9).Value(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("ProposeAsync after poisoning = %v, want ErrPoisoned", err)
	}
}

// TestAsyncWakeOnForeignWrite: every memory change resumes a parked
// proposal — the event-driven core, now without a goroutine waiting for
// it — and a resumed proposal takes its pending operation before it may
// park again (the woken-waiter-proceeds rule), so a sequence of wakes
// drives a parked proposal all the way to its solo decision. The wakes
// here are whitebox pokes: re-writing a register with its own value
// advances the change version without changing memory contents, and each
// poke happens only while the proposal is provably parked (the memory is
// quiescent then, so read-rewrite cannot clobber a concurrent write).
func TestAsyncWakeOnForeignWrite(t *testing.T) {
	ctx := context.Background()
	r, h, fut := newParkedAsync(t, ctx)
	nt, ok := r.rt.mem.(shmem.Notifier)
	if !ok {
		t.Fatalf("runtime memory %T does not expose shmem.Notifier", r.rt.mem)
	}
	deadline := time.Now().Add(30 * time.Second)
	pokes := 0
	for !fut.Resolved() {
		if time.Now().After(deadline) {
			t.Fatalf("proposal not driven to completion after %d wakes: %+v", pokes, h.Stats())
		}
		if nt.Waiters() == 0 {
			goruntime.Gosched() // the proposal is between park and wake
			continue
		}
		r.rt.mem.Write(0, r.rt.mem.Read(0))
		pokes++
	}
	got, err := fut.Value()
	if err != nil {
		t.Fatalf("future resolved with %v after %d wakes", err, pokes)
	}
	if got != 41 {
		t.Fatalf("solo async decided %d, want its own proposal 41", got)
	}
	s := h.Stats()
	if s.Wakeups < 1 {
		t.Fatalf("parked proposal decided with %d wakeups", s.Wakeups)
	}
	if s.WaitTime <= 0 {
		t.Fatalf("WaitTime = %v after real parks", s.WaitTime)
	}
	// The repeated handle is free again after an async decision. (A sync
	// Propose would block under this test's hour-long conservative waits;
	// the lifecycle word is what matters here.)
	if st := h.st.Load(); st != stateFree {
		t.Fatalf("handle state = %d after async decision, want free", st)
	}
}

// TestArenaAsyncGauges: ArenaStats surfaces the engine gauges and the
// per-object Notifier.Waiters roll-up while async proposals are parked,
// and the gauges return to zero once they resolve.
func TestArenaAsyncGauges(t *testing.T) {
	ar, err := NewArena[int](2, 1, WithObjectOptions(
		WithSnapshot(SnapshotWaitFree),
		WithBackoff(time.Hour, time.Hour, 1)))
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const keys = 8
	futs := make([]*Future[int], keys)
	for i := 0; i < keys; i++ {
		h, err := ar.Object(key(i)).Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		futs[i] = h.ProposeAsync(ctx, i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ar.Stats().AsyncParked < keys {
		if time.Now().After(deadline) {
			t.Fatalf("arena never parked all proposals: %+v", ar.Stats())
		}
		goruntime.Gosched()
	}
	s := ar.Stats()
	if s.AsyncInFlight != keys {
		t.Fatalf("AsyncInFlight = %d, want %d", s.AsyncInFlight, keys)
	}
	// The engine counts a task as parked just before it registers the
	// task's wake on the notifier, so the waiter count can trail the parked
	// count for a moment.
	deadline = time.Now().Add(10 * time.Second)
	for s.NotifyWaiters != keys {
		if time.Now().After(deadline) {
			t.Fatalf("NotifyWaiters = %d with %d parked proposals on %d objects, want %d",
				s.NotifyWaiters, keys, keys, keys)
		}
		goruntime.Gosched()
		s = ar.Stats()
	}
	cancel()
	for _, fut := range futs {
		if err := fut.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("future resolved with %v, want context.Canceled", err)
		}
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		s = ar.Stats()
		if s.AsyncInFlight == 0 && s.AsyncParked == 0 && s.NotifyWaiters == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges did not return to zero: %+v", s)
		}
		goruntime.Gosched()
	}
	if s.Proposes != keys {
		t.Fatalf("arena roll-up Proposes = %d, want %d (async proposes must count)", s.Proposes, keys)
	}
}

// TestAsyncGoroutineEconomy is the acceptance bar in test form: hundreds
// of stalled proposals, parked across hundreds of arena objects, pin no
// goroutines — where the synchronous equivalent holds one blocked
// goroutine each (BenchmarkAsyncInFlight measures that side by side).
func TestAsyncGoroutineEconomy(t *testing.T) {
	const stalled = 512
	ar, err := NewArena[int](2, 1, WithObjectOptions(
		WithSnapshot(SnapshotWaitFree),
		WithBackoff(time.Hour, time.Hour, 1)))
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseline := goruntime.NumGoroutine()
	futs := make([]*Future[int], stalled)
	for i := 0; i < stalled; i++ {
		h, err := ar.Object(key(i)).Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		futs[i] = h.ProposeAsync(ctx, i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for ar.Stats().AsyncParked < stalled {
		if time.Now().After(deadline) {
			t.Fatalf("arena never parked all %d proposals: %+v", stalled, ar.Stats())
		}
		goruntime.Gosched()
	}
	// All 512 proposals are stalled. The sync equivalent would hold 512
	// goroutines blocked in notify-waits; the acceptance bar is ≥10× fewer.
	budget := baseline + stalled/10
	if got := goruntime.NumGoroutine(); got > budget {
		t.Fatalf("NumGoroutine = %d with %d parked proposals (baseline %d); want ≤ %d — parked proposals are pinning goroutines",
			got, stalled, baseline, budget)
	}
	cancel()
	for _, fut := range futs {
		if err := fut.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("future resolved with %v, want context.Canceled", err)
		}
	}
}

func key(i int) string { return fmt.Sprintf("key-%04d", i) }
