package setagreement_test

// Completion-queue contract tests: delivery in completion order (not
// submission order), exactly-once handoff for every resolution path a
// future can take (decision, lifecycle error, cancellation), and the
// lifecycle edges of the queue itself — Close with registrations still in
// flight, context cancellation inside Next, drain-then-fail after Close.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sa "setagreement"
)

// parkedProposal is the public-level version of the whitebox parked-async
// fixture: a register-implemented snapshot (solo detection is conservative
// there, so the proposal parks at its first yield) with an hour-long blind
// cap keeps a ProposeAsync in flight until its context is cancelled.
func parkedProposal(t *testing.T) (*sa.Handle[int], context.CancelFunc, *sa.Future[int]) {
	t.Helper()
	r, err := sa.NewRepeated[int](2, 1,
		sa.WithSnapshot(sa.SnapshotWaitFree),
		sa.WithBackoff(time.Hour, time.Hour, 1))
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fut := h.ProposeAsync(ctx, 41)
	return h, cancel, fut
}

// TestCompletionQueueOrder is the acceptance check for the completion side
// of the batch API: futures are delivered in the order they resolve,
// whatever order they were registered in. Five hour-parked proposals are
// registered 0..4, then resolved (by cancellation) in a scrambled order;
// Next must yield that scrambled order, with no head-of-line blocking on
// the still-parked earlier registrations.
func TestCompletionQueueOrder(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const n = 5
	q := sa.NewCompletionQueue[int]()
	defer q.Close()
	cancels := make([]context.CancelFunc, n)
	for i := 0; i < n; i++ {
		_, c, fut := parkedProposal(t)
		cancels[i] = c
		defer c()
		if err := q.Register(fut, i); err != nil {
			t.Fatalf("Register(%d): %v", i, err)
		}
	}
	if got := q.Pending(); got != n {
		t.Fatalf("Pending() = %d after %d registrations, want %d", got, n, n)
	}
	for _, i := range []int{3, 0, 4, 2, 1} {
		cancels[i]()
		c, err := q.Next(ctx)
		if err != nil {
			t.Fatalf("Next after cancelling %d: %v", i, err)
		}
		if c.Tag != i {
			t.Fatalf("Next delivered tag %d, want %d (completion order, not registration order)", c.Tag, i)
		}
		if _, err := c.Value(); !errors.Is(err, context.Canceled) {
			t.Fatalf("completion %d resolved with %v, want context.Canceled", i, err)
		}
	}
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after full drain, want 0", got)
	}
}

// TestCompletionQueueNextContext: a Next blocked on an empty queue honours
// its context — it returns ctx.Err() and leaves the queue usable.
func TestCompletionQueueNextContext(t *testing.T) {
	q := sa.NewCompletionQueue[int]()
	defer q.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.Next(ctx)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next on cancelled ctx = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next did not return after context cancellation")
	}

	// The queue survives: a registration after the aborted Next delivers.
	a, err := sa.New[int](2, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := a.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	fut := h.ProposeAsync(context.Background(), 7)
	if err := q.Register(fut, 7); err != nil {
		t.Fatalf("Register after aborted Next: %v", err)
	}
	wait, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	c, err := q.Next(wait)
	if err != nil || c.Tag != 7 {
		t.Fatalf("Next = (tag %d, %v), want (7, nil)", c.Tag, err)
	}
}

// TestCompletionQueueClose pins the Close contract: buffered completions
// stay drainable, blocked Next calls wake with ErrCompletionQueueClosed
// once drained, later Registers fail, and futures whose registrations were
// still in flight resolve normally — only their queue delivery is dropped.
func TestCompletionQueueClose(t *testing.T) {
	ctx, cancelAll := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelAll()

	q := sa.NewCompletionQueue[int]()

	// One already-buffered completion (a solo decision resolves promptly).
	a, err := sa.New[int](2, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := a.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	done := h.ProposeAsync(ctx, 11)
	if _, err := done.Value(); err != nil {
		t.Fatalf("solo async: %v", err)
	}
	if err := q.Register(done, 1); err != nil {
		t.Fatalf("Register resolved future: %v", err)
	}

	// One registration still in flight when Close lands.
	_, cancelParked, parked := parkedProposal(t)
	defer cancelParked()
	if err := q.Register(parked, 2); err != nil {
		t.Fatalf("Register parked future: %v", err)
	}

	q.Close()
	q.Close() // idempotent

	// The buffered completion drains first, then the closed error.
	c, err := q.Next(ctx)
	if err != nil || c.Tag != 1 {
		t.Fatalf("Next after Close = (tag %d, %v), want buffered (1, nil)", c.Tag, err)
	}
	if _, err := q.Next(ctx); !errors.Is(err, sa.ErrCompletionQueueClosed) {
		t.Fatalf("Next on drained closed queue = %v, want ErrCompletionQueueClosed", err)
	}
	if err := q.Register(done, 3); !errors.Is(err, sa.ErrCompletionQueueClosed) {
		t.Fatalf("Register on closed queue = %v, want ErrCompletionQueueClosed", err)
	}

	// The in-flight future is unharmed by the dropped delivery: it resolves
	// with its own outcome and stays readable forever.
	cancelParked()
	if _, err := parked.Value(); !errors.Is(err, context.Canceled) {
		t.Fatalf("future registered on closed queue resolved with %v, want context.Canceled", err)
	}
	if _, err := q.Next(ctx); !errors.Is(err, sa.ErrCompletionQueueClosed) {
		t.Fatalf("Next after dropped delivery = %v, want ErrCompletionQueueClosed", err)
	}
}

// TestCompletionQueueExactlyOnce: every resolution path delivers exactly
// one completion, and a future belongs to at most one queue for life —
// re-registration fails with ErrAlreadyRegistered on any queue, including
// after the future has resolved and been collected.
func TestCompletionQueueExactlyOnce(t *testing.T) {
	ctx, cancelAll := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelAll()
	q := sa.NewCompletionQueue[string]()
	defer q.Close()

	// Path 1: cancel-before-start — the future is resolved (and the handle
	// poisoned) before Register ever sees it.
	r, err := sa.NewRepeated[string](2, 1)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	cancelled := h.ProposeAsync(dead, "x")
	if err := q.Register(cancelled, 0); err != nil {
		t.Fatalf("Register cancelled future: %v", err)
	}

	// Path 2: the poisoned handle's next async fails through its future.
	poisoned := h.ProposeAsync(ctx, "y")
	if err := q.Register(poisoned, 1); err != nil {
		t.Fatalf("Register poisoned future: %v", err)
	}

	wantErr := map[int]error{0: context.Canceled, 1: sa.ErrPoisoned}
	for i := 0; i < 2; i++ {
		c, err := q.Next(ctx)
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		want, ok := wantErr[c.Tag]
		if !ok {
			t.Fatalf("completion tag %d delivered twice", c.Tag)
		}
		delete(wantErr, c.Tag)
		if _, err := c.Value(); !errors.Is(err, want) {
			t.Fatalf("completion %d resolved with %v, want %v", c.Tag, err, want)
		}
	}

	// Exactly once: both futures collected, nothing further is pending and
	// re-registration is refused everywhere.
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
	if err := q.Register(cancelled, 9); !errors.Is(err, sa.ErrAlreadyRegistered) {
		t.Fatalf("re-Register on same queue = %v, want ErrAlreadyRegistered", err)
	}
	q2 := sa.NewCompletionQueue[string]()
	defer q2.Close()
	if err := q2.Register(cancelled, 9); !errors.Is(err, sa.ErrAlreadyRegistered) {
		t.Fatalf("re-Register on second queue = %v, want ErrAlreadyRegistered", err)
	}
	probe, cancelProbe := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelProbe()
	if _, err := q.Next(probe); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next after exactly-once drain = %v, want deadline (no duplicate delivery)", err)
	}
}

// blockingCodec is the identity codec on int, except that encoding the
// sentinel signals entered and blocks until release is closed: an engine
// worker that starts the sentinel's proposal is held there.
type blockingCodec struct {
	sentinel int
	once     sync.Once
	entered  chan struct{}
	release  chan struct{}
}

func (c *blockingCodec) Encode(v int) int {
	if v == c.sentinel {
		c.once.Do(func() { close(c.entered) })
		<-c.release
	}
	return v
}

func (c *blockingCodec) Decode(code int) (int, error) { return code, nil }

// TestCompletionQueueNextHelps: a collector blocked in Next runs its
// engine's queued proposals itself. The one-worker engine's only drain is
// held inside the sentinel's Encode, so nothing but the collector can
// advance the K proposals queued behind it; Next must still return all K
// completions while the sentinel stays blocked.
func TestCompletionQueueNextHelps(t *testing.T) {
	const k = 16
	const sentinel = -1
	codec := &blockingCodec{sentinel: sentinel, entered: make(chan struct{}), release: make(chan struct{})}
	ar, err := sa.NewArena[int](2, 1, sa.ArenaOneShot(),
		sa.WithObjectOptions(sa.WithEngine(1), sa.WithCodec[int](codec)))
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	hs, err := ar.Object("sentinel").Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	held := hs.ProposeAsync(context.Background(), sentinel)
	defer func() {
		close(codec.release)
		if v, err := held.Value(); err != nil || v != sentinel {
			t.Errorf("sentinel resolved (%d, %v), want (%d, nil)", v, err, sentinel)
		}
	}()
	<-codec.entered

	q := sa.NewCompletionQueue[int]()
	defer q.Close()
	for i := 0; i < k; i++ {
		h, err := ar.Object(fmt.Sprintf("key-%d", i)).Proc(0)
		if err != nil {
			t.Fatalf("Proc(key-%d): %v", i, err)
		}
		if err := q.Register(h.ProposeAsync(context.Background(), i), i); err != nil {
			t.Fatalf("Register(%d): %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seen := make(map[int]bool, k)
	for n := 0; n < k; n++ {
		c, err := q.Next(ctx)
		if err != nil {
			t.Fatalf("Next #%d with the only engine worker held: %v", n, err)
		}
		if seen[c.Tag] {
			t.Fatalf("tag %d delivered twice", c.Tag)
		}
		seen[c.Tag] = true
		if v, err := c.Value(); err != nil || v != c.Tag {
			t.Fatalf("completion %d resolved (%d, %v), want its own solo value", c.Tag, v, err)
		}
	}
	if held.Resolved() {
		t.Fatal("the sentinel resolved while its Encode was still blocked")
	}
}

// TestCompletionQueueHelpersExactlyOnce: four collectors call Next on one
// queue concurrently — each also helping the engine — while 64 handles
// (8 repeated objects × 8 contending processes) run 64 proposals each, a
// handle's next proposal submitted by whichever collector received its
// last. Every tag is delivered exactly once, every instance agrees on one
// proposed value, and the engine ends with nothing in flight.
func TestCompletionQueueHelpersExactlyOnce(t *testing.T) {
	const (
		objects    = 8
		procs      = 8
		handles    = objects * procs
		rounds     = 64
		total      = handles * rounds
		collectors = 4
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ar, err := sa.NewArena[int](procs, 1, sa.WithObjectOptions(sa.WithEngine(1)))
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	hs := make([]*sa.Handle[int], handles)
	for i := range hs {
		if hs[i], err = ar.Object(fmt.Sprintf("obj-%d", i/procs)).Proc(i % procs); err != nil {
			t.Fatalf("Proc: %v", err)
		}
	}
	q := sa.NewCompletionQueue[int]()
	defer q.Close()
	// Tag round*handles+h is handle h's proposal in that round, and the
	// value it proposes: tag/procs names the object instance.
	submit := func(tag int) error {
		return q.Register(hs[tag%handles].ProposeAsync(ctx, tag), tag)
	}
	for h := 0; h < handles; h++ {
		if err := submit(h); err != nil {
			t.Fatalf("submit %d: %v", h, err)
		}
	}

	var (
		delivered [total]atomic.Int32
		got       atomic.Int32
		mu        sync.Mutex
		decided   = make(map[int]int) // instance → decided value
		wg        sync.WaitGroup
	)
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				comp, err := q.Next(ctx)
				if errors.Is(err, sa.ErrCompletionQueueClosed) {
					return
				}
				if err != nil {
					t.Errorf("Next: %v", err)
					return
				}
				tag := comp.Tag
				delivered[tag].Add(1)
				v, err := comp.Value()
				if err != nil {
					t.Errorf("proposal %d: %v", tag, err)
					return
				}
				if v/procs != tag/procs {
					t.Errorf("proposal %d decided %d, proposed by none of its instance", tag, v)
				}
				mu.Lock()
				if d, ok := decided[tag/procs]; !ok {
					decided[tag/procs] = v
				} else if d != v {
					t.Errorf("instance %d decided both %d and %d", tag/procs, d, v)
				}
				mu.Unlock()
				if next := tag + handles; next < total {
					if err := submit(next); err != nil {
						t.Errorf("submit %d: %v", next, err)
						return
					}
				}
				if got.Add(1) == total {
					q.Close()
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for tag := range delivered {
		if n := delivered[tag].Load(); n != 1 {
			t.Fatalf("tag %d delivered %d times, want exactly once", tag, n)
		}
	}
	// The engine retires a task just after its Advance resolves the future.
	deadline := time.Now().Add(10 * time.Second)
	for ar.Stats().AsyncInFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("AsyncInFlight = %d after every completion, want 0", ar.Stats().AsyncInFlight)
		}
		runtime.Gosched()
	}
	for _, h := range hs {
		if err := h.Release(); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
}
