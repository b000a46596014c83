package setagreement_test

// Batch submission tests: Arena.SubmitBatch fan-out (claims, per-op
// failures, agreement per key), SubmitAll over retained handles (repeat
// rounds, structural errors, failure delivery through a completion queue)
// and Batch.Wait semantics.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	sa "setagreement"
	"setagreement/obs"
)

// TestSubmitBatchFanout: one SubmitBatch call fans out over fresh arena
// keys — every op gets a claimed handle and a future, contenders of one key
// agree (k=1), and the batch drains through a completion queue with every
// tag delivered exactly once.
func TestSubmitBatchFanout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const keys, procs = 8, 3
	ar, err := sa.NewArena[int](procs, 1)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	ops := make([]sa.BatchOp[int], 0, keys*procs)
	for k := 0; k < keys; k++ {
		for p := 0; p < procs; p++ {
			ops = append(ops, sa.BatchOp[int]{
				Key:   fmt.Sprintf("key-%d", k),
				Proc:  p,
				Value: k*100 + p,
			})
		}
	}
	b, err := ar.SubmitBatch(ctx, ops)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if b.Len() != len(ops) {
		t.Fatalf("Len() = %d, want %d", b.Len(), len(ops))
	}

	q := sa.NewCompletionQueue[int]()
	defer q.Close()
	if err := b.Register(q); err != nil {
		t.Fatalf("Register: %v", err)
	}
	decided := make(map[int]int, len(ops)) // op index -> decided value
	for range ops {
		c, err := q.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if _, dup := decided[c.Tag]; dup {
			t.Fatalf("tag %d delivered twice", c.Tag)
		}
		v, err := c.Value()
		if err != nil {
			t.Fatalf("op %d (key %s proc %d): %v", c.Tag, ops[c.Tag].Key, ops[c.Tag].Proc, err)
		}
		decided[c.Tag] = v
	}
	// k=1 per key: every contender of a key decided the same proposed value.
	for k := 0; k < keys; k++ {
		base := k * procs
		want := decided[base]
		if want/100 != k {
			t.Fatalf("key %d decided %d, not a value proposed on that key", k, want)
		}
		for p := 1; p < procs; p++ {
			if got := decided[base+p]; got != want {
				t.Fatalf("key %d disagreement: proc 0 decided %d, proc %d decided %d", k, want, p, got)
			}
		}
	}
	// All handles were claimed; Wait on the fully-resolved batch is a no-op.
	for i := range ops {
		if b.Handle(i) == nil {
			t.Fatalf("Handle(%d) = nil for a successful op", i)
		}
	}
	if err := b.Wait(ctx); err != nil {
		t.Fatalf("Wait after drain: %v", err)
	}
}

// TestSubmitBatchStreamsChunks: a 256-op SubmitBatch reaches the engine as
// 16 batch descriptors of 16 proposals — the submitter hands each run over
// as soon as it is prepared — and every proposal still resolves exactly
// once through a completion queue.
func TestSubmitBatchStreamsChunks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const keys, procs = 128, 2
	col := obs.NewCollector()
	ar, err := sa.NewArena[int](procs, 1, sa.ArenaOneShot(),
		sa.WithObjectOptions(sa.WithObservability(col)))
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	ops := make([]sa.BatchOp[int], 0, keys*procs)
	for k := 0; k < keys; k++ {
		for p := 0; p < procs; p++ {
			ops = append(ops, sa.BatchOp[int]{Key: fmt.Sprintf("key-%d", k), Proc: p, Value: k*10 + p})
		}
	}
	b, err := ar.SubmitBatch(ctx, ops)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	q := sa.NewCompletionQueue[int]()
	defer q.Close()
	if err := b.Register(q); err != nil {
		t.Fatalf("Register: %v", err)
	}
	seen := make([]bool, len(ops))
	for range ops {
		c, err := q.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if seen[c.Tag] {
			t.Fatalf("tag %d delivered twice", c.Tag)
		}
		seen[c.Tag] = true
		if v, err := c.Value(); err != nil || v/10 != ops[c.Tag].Value/10 {
			t.Fatalf("op %d decided (%d, %v), want a value proposed on its key", c.Tag, v, err)
		}
	}
	if got, want := ar.Observe(false).Counters["batches_expanded"], uint64(len(ops)/16); got != want {
		t.Fatalf("batches_expanded = %d, want %d descriptors of 16 proposals", got, want)
	}
}

// TestSubmitBatchPerOpFailures: a claim failure (duplicate proc id in one
// batch) resolves only that op's future — with the error the equivalent
// ProposeAsync would return — and the rest of the batch proceeds.
func TestSubmitBatchPerOpFailures(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ar, err := sa.NewArena[int](2, 1)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	b, err := ar.SubmitBatch(ctx, []sa.BatchOp[int]{
		{Key: "dup", Proc: 0, Value: 1},
		{Key: "dup", Proc: 0, Value: 2}, // second claim of proc 0
		{Key: "dup", Proc: 1, Value: 3},
		{Key: "dup", Proc: 9, Value: 4}, // out of range
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if err := b.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := b.Future(1).Value(); !errors.Is(err, sa.ErrInUse) {
		t.Fatalf("duplicate-claim op = %v, want ErrInUse", err)
	}
	if b.Handle(1) != nil {
		t.Fatal("failed op has a non-nil handle")
	}
	if _, err := b.Future(3).Value(); !errors.Is(err, sa.ErrBadID) {
		t.Fatalf("out-of-range op = %v, want ErrBadID", err)
	}
	v0, err0 := b.Future(0).Value()
	v2, err2 := b.Future(2).Value()
	if err0 != nil || err2 != nil || v0 != v2 {
		t.Fatalf("surviving ops = (%d, %v) and (%d, %v), want one agreed value", v0, err0, v2, err2)
	}
}

// TestSubmitBatchAfterEvict: eviction does not wedge batch fan-out — a
// SubmitBatch after Evict serves the key's fresh generation, while a
// handle retained from the dead generation fails through its future when
// resubmitted, delivering the lifecycle error into the completion queue.
func TestSubmitBatchAfterEvict(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ar, err := sa.NewArena[int](2, 1)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	old := ar.Object("k")
	h0, err := old.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	if _, err := h0.Propose(ctx, 1); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if err := h0.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if !ar.Evict("k") {
		t.Fatal("Evict with all handles released = false")
	}
	if _, err := old.Proc(1); !errors.Is(err, sa.ErrEvicted) {
		t.Fatalf("Proc on evicted generation = %v, want ErrEvicted", err)
	}

	// The released handle of the dead generation, resubmitted through
	// SubmitAll, fails through its future — and the failure is a completion
	// like any other.
	b, err := sa.SubmitAll(ctx, []*sa.Handle[int]{h0}, []int{5})
	if err != nil {
		t.Fatalf("SubmitAll: %v", err)
	}
	q := sa.NewCompletionQueue[int]()
	defer q.Close()
	if err := b.Register(q); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c, err := q.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if _, err := c.Value(); !errors.Is(err, sa.ErrReleased) {
		t.Fatalf("released-handle completion = %v, want ErrReleased", err)
	}

	// The fresh generation is fully serviceable in a batch.
	b2, err := ar.SubmitBatch(ctx, []sa.BatchOp[int]{
		{Key: "k", Proc: 0, Value: 7},
		{Key: "k", Proc: 1, Value: 8},
	})
	if err != nil {
		t.Fatalf("SubmitBatch after Evict: %v", err)
	}
	if err := b2.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	v0, err := b2.Future(0).Value()
	if err != nil {
		t.Fatalf("fresh generation op: %v", err)
	}
	if v0 != 7 && v0 != 8 {
		t.Fatalf("fresh generation decided %d, want a proposed value", v0)
	}
}

// TestSubmitAllRounds: SubmitAll over retained arena handles is the
// repeat-friendly entry point — successive rounds on the same handles keep
// deciding (repeated objects), and agreement holds per key each round.
func TestSubmitAllRounds(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const keys, procs = 4, 2
	ar, err := sa.NewArena[int](procs, 1)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	handles := make([]*sa.Handle[int], 0, keys*procs)
	for k := 0; k < keys; k++ {
		obj := ar.Object(fmt.Sprintf("r-%d", k))
		for p := 0; p < procs; p++ {
			h, err := obj.Proc(p)
			if err != nil {
				t.Fatalf("Proc: %v", err)
			}
			handles = append(handles, h)
		}
	}
	vals := make([]int, len(handles))
	for round := 0; round < 3; round++ {
		for i := range vals {
			vals[i] = round*1000 + i
		}
		b, err := sa.SubmitAll(ctx, handles, vals)
		if err != nil {
			t.Fatalf("round %d SubmitAll: %v", round, err)
		}
		if err := b.Wait(ctx); err != nil {
			t.Fatalf("round %d Wait: %v", round, err)
		}
		for k := 0; k < keys; k++ {
			want, err := b.Future(k * procs).Value()
			if err != nil {
				t.Fatalf("round %d key %d: %v", round, k, err)
			}
			if want < round*1000 || want >= round*1000+len(handles) {
				t.Fatalf("round %d key %d decided %d, not from this round", round, k, want)
			}
			for p := 1; p < procs; p++ {
				if got, _ := b.Future(k*procs + p).Value(); got != want {
					t.Fatalf("round %d key %d disagreement: %d vs %d", round, k, want, got)
				}
			}
		}
	}
}

// TestSubmitAllStructuralErrors: mismatched lengths and nil handles are
// caller bugs — SubmitAll reports them up front and submits nothing, so
// the handles stay claimable.
func TestSubmitAllStructuralErrors(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	r, err := sa.NewRepeated[int](2, 1)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	if _, err := sa.SubmitAll(ctx, []*sa.Handle[int]{h}, []int{1, 2}); err == nil {
		t.Fatal("SubmitAll with mismatched lengths succeeded")
	}
	if _, err := sa.SubmitAll(ctx, []*sa.Handle[int]{h, nil}, []int{1, 2}); err == nil {
		t.Fatal("SubmitAll with a nil handle succeeded")
	}
	// Nothing was submitted: the handle is free for a plain Propose.
	if _, err := h.Propose(ctx, 3); err != nil {
		t.Fatalf("Propose after rejected SubmitAll = %v, want success", err)
	}

	// Empty batch: legal, resolved, registrable.
	b, err := sa.SubmitAll[int](ctx, nil, nil)
	if err != nil {
		t.Fatalf("empty SubmitAll: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty batch Len() = %d", b.Len())
	}
	if err := b.Wait(ctx); err != nil {
		t.Fatalf("empty batch Wait: %v", err)
	}
}

// TestBatchWaitContext: Wait honours its context while proposals are still
// in flight and leaves the futures untouched.
func TestBatchWaitContext(t *testing.T) {
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
	pctx, cancelProposal := context.WithCancel(context.Background())
	defer cancelProposal()
	b, err := sa.SubmitAll(pctx, []*sa.Handle[int]{h}, []int{1})
	if err != nil {
		t.Fatalf("SubmitAll: %v", err)
	}
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if err := b.Wait(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on hour-parked batch = %v, want deadline", err)
	}
	if b.Future(0).Resolved() {
		t.Fatal("aborted Wait resolved the future")
	}
	cancelProposal()
	wait, cancelWait := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelWait()
	if err := b.Wait(wait); err != nil {
		t.Fatalf("Wait after cancellation: %v", err)
	}
	if _, err := b.Future(0).Value(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled proposal = %v, want context.Canceled", err)
	}
}

// benchArena builds an arena with size solo handles (one key each, proc 0,
// no contention) sharing one engine — the fixture both benchmark modes and
// the batch alloc guard submit rounds through.
func benchArena(tb testing.TB, size int) []*sa.Handle[int] {
	tb.Helper()
	ar, err := sa.NewArena[int](4, 1)
	if err != nil {
		tb.Fatalf("NewArena: %v", err)
	}
	handles := make([]*sa.Handle[int], size)
	for i := range handles {
		h, err := ar.Object(fmt.Sprintf("bench-%d", i)).Proc(0)
		if err != nil {
			tb.Fatalf("Proc: %v", err)
		}
		handles[i] = h
	}
	return handles
}

// drainBatchRound blocks until every future of one submitted round has
// resolved, failing the test on any proposal error.
func drainBatchRound(tb testing.TB, futs []*sa.Future[int]) {
	tb.Helper()
	for i, f := range futs {
		if _, err := f.Value(); err != nil {
			tb.Fatalf("proposal %d: %v", i, err)
		}
	}
}

// BenchmarkSubmitBatch measures the submit-side cost per proposal of the
// batch entry point against the looped baseline it amortizes: mode=loop
// calls ProposeAsync once per handle, mode=batch hands the same handles to
// SubmitAll in one call. Only submission is timed (the drain runs under
// StopTimer), so ns/proposal and allocs/op compare the handoff itself —
// the acceptance criterion is batch ≤ half of loop at size 64 and above.
func BenchmarkSubmitBatch(b *testing.B) {
	ctx := context.Background()
	for _, size := range []int{8, 64, 256} {
		for _, mode := range []string{"loop", "batch"} {
			b.Run(fmt.Sprintf("mode=%s/size=%d", mode, size), func(b *testing.B) {
				handles := benchArena(b, size)
				vals := make([]int, size)
				futs := make([]*sa.Future[int], size)
				round := func() {
					if mode == "loop" {
						for i, h := range handles {
							futs[i] = h.ProposeAsync(ctx, i)
						}
					} else {
						batch, err := sa.SubmitAll(ctx, handles, vals)
						if err != nil {
							b.Fatalf("SubmitAll: %v", err)
						}
						for i := 0; i < size; i++ {
							futs[i] = batch.Future(i)
						}
					}
				}
				// Warm past one-time costs (engine creation, wait plans).
				round()
				drainBatchRound(b, futs)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					round()
					b.StopTimer()
					drainBatchRound(b, futs)
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/proposal")
			})
		}
	}
}
