package setagreement

import (
	"context"
	"fmt"

	"setagreement/internal/engine"
)

// BatchOp is one proposal of an arena batch: process Proc of the object
// named Key proposes Value.
type BatchOp[T comparable] struct {
	Key   string
	Proc  int
	Value T
}

// Batch is the submit-side half of one SubmitBatch/SubmitAll call: the
// futures of every proposal in the batch, index-aligned with the submitted
// ops. Collect results either directly (Future(i).Value), in bulk (Wait),
// or — the intended shape at scale — by registering the whole batch with a
// CompletionQueue and draining completions in the order they resolve.
type Batch[T comparable] struct {
	futs    []*Future[T]
	handles []*Handle[T]
}

// Len returns the number of proposals in the batch.
func (b *Batch[T]) Len() int { return len(b.futs) }

// Future returns proposal i's future. Proposals that failed before reaching
// the engine (a claim error, a dead context) have already-resolved futures
// carrying the same error the equivalent ProposeAsync would have returned.
func (b *Batch[T]) Future(i int) *Future[T] { return b.futs[i] }

// Handle returns the handle proposal i was submitted through — for
// Arena.SubmitBatch, the handle it claimed for op i (nil when the claim
// itself failed; the future then carries the error). Useful for follow-up
// proposals on repeated objects and for Release.
func (b *Batch[T]) Handle(i int) *Handle[T] { return b.handles[i] }

// Register attaches every future of the batch to q, tagged with its index,
// so one collector can drain the batch in completion order. Registrations
// are slab-allocated: one allocation for the whole batch. Returns the first
// registration error (a closed queue, a future already registered
// elsewhere) and stops there; earlier registrations stand.
func (b *Batch[T]) Register(q *CompletionQueue[T]) error {
	regs := make([]cqReg[T], len(b.futs))
	for i, f := range b.futs {
		regs[i] = cqReg[T]{q: q, tag: i}
		if err := q.register(f, &regs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Wait blocks until every proposal in the batch has resolved, or ctx ends
// (returning ctx.Err() with the rest still in flight). A nil ctx waits
// indefinitely. Wait returns nil once all futures are resolved, whatever
// their individual outcomes — inspect Future(i) for per-proposal errors.
func (b *Batch[T]) Wait(ctx context.Context) error {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for _, f := range b.futs {
		if f.Resolved() {
			continue
		}
		select {
		case <-f.Done():
		case <-ctxDone:
			return ctx.Err()
		}
	}
	return nil
}

// submitChunk is how many prepared proposals Arena.SubmitBatch gathers
// before it hands them to the engine. Each key of a fan-out is an
// independent object whose first proposal runs solo and decides, so the
// engine can start deciding the first keys while the submitter is still
// creating objects and claiming handles for the rest; a batch reaches the
// engine as one descriptor per submitChunk proposals, which bounds how
// long the first proposal waits for the submitter. Smaller chunks start
// sooner but cost a descriptor and a run-queue transition each.
const submitChunk = 16

// SubmitBatch claims a handle and submits a proposal for every op — the
// amortized counterpart of looping ProposeAsync over Object(...).Proc(...).
// The proposals reach the arena's engine as they are prepared, one batch
// descriptor — one run-queue transition — per 16 proposals, so the engine
// decides the first keys while SubmitBatch is still claiming handles for
// the rest; they start in op order. Futures, proposal wrappers and engine
// tasks are slab-allocated per batch, so the submit-side cost per proposal
// drops well below the looped path's at fan-out batch sizes (see
// BenchmarkSubmitBatch).
//
// Per-op failures never fail the batch: an op whose claim fails (an already
// claimed process id, an evicted generation, a dead context) gets an
// already-resolved future carrying that error, exactly as ProposeAsync
// would return, and the rest of the batch proceeds. By the time SubmitBatch
// returns every claim has been made and every future set; earlier
// proposals may already have resolved. Note that Proc claims are per
// object generation: SubmitBatch is the fan-out entry point for fresh keys,
// while repeated proposals over retained handles go through SubmitAll.
func (ar *Arena[T]) SubmitBatch(ctx context.Context, ops []BatchOp[T]) (*Batch[T], error) {
	b := &Batch[T]{}
	if len(ops) == 0 {
		return b, nil
	}
	futs := make([]Future[T], len(ops))
	aps := make([]asyncProposal[T], len(ops))
	b.futs = make([]*Future[T], len(ops))
	b.handles = make([]*Handle[T], len(ops))
	// props[sent:] are prepared but not yet handed over. Each handoff is a
	// capacity-capped subslice of the one array, props[sent:n:n], so it
	// allocates nothing, and the engine never sees the part still being
	// appended to.
	props := make([]engine.Proposal, 0, len(ops))
	sent := 0
	// Consecutive ops on one key (the natural fan-out shape: all contenders
	// of a key submitted together) share a single arena lookup.
	var lastKey string
	var lastObj *ArenaObject[T]
	for i := range ops {
		fut := &futs[i]
		b.futs[i] = fut
		obj := lastObj
		if obj == nil || ops[i].Key != lastKey {
			obj = ar.Object(ops[i].Key)
			lastKey, lastObj = ops[i].Key, obj
		}
		h, err := obj.Proc(ops[i].Proc)
		if err != nil {
			// No handle means no guard to record through; trace the claim
			// failure via the arena's collector directly (nil-safe no-op
			// when observability is off).
			ar.opts.obs.StartSpan(ops[i].Key, int32(ops[i].Proc)).Failed()
			var zero T
			fut.resolve(zero, err)
			continue
		}
		b.handles[i] = h
		if h.prepareAsync(ctx, fut, &aps[i], ops[i].Value) {
			props = append(props, &aps[i])
			if n := len(props); n-sent == submitChunk {
				ar.eng.get().SubmitBatch(props[sent:n:n])
				sent = n
			}
		}
	}
	if n := len(props); n > sent {
		ar.eng.get().SubmitBatch(props[sent:n:n])
	}
	return b, nil
}

// engineBatch groups one SubmitAll's proposals by their target engine.
// Handles of one arena (or one standalone object) share an engine, so the
// common case is a single group submitted in one SubmitBatch.
type engineBatch struct {
	er    *engineRef
	props []engine.Proposal
}

// SubmitAll submits vals[i] through handles[i] for the whole slice and
// returns the batch of futures — the amortized counterpart of looping
// ProposeAsync over retained handles. Handles sharing an engine (all
// handles of one arena, or of one standalone object) are handed to it as
// one batch through a single run-queue transition; a mixed slice is grouped
// by engine and each group batched. Lifecycle is exactly ProposeAsync's,
// per handle, delivered through the futures: a handle that cannot claim
// (ErrInUse, ErrPoisoned, ...) or whose ctx is already dead resolves its
// future immediately and the rest of the batch proceeds.
//
// SubmitAll errors only on structural misuse — mismatched slice lengths or
// a nil handle — and then submits nothing.
func SubmitAll[T comparable](ctx context.Context, handles []*Handle[T], vals []T) (*Batch[T], error) {
	if len(handles) != len(vals) {
		return nil, fmt.Errorf("setagreement: SubmitAll got %d handles but %d values", len(handles), len(vals))
	}
	for i, h := range handles {
		if h == nil {
			return nil, fmt.Errorf("setagreement: SubmitAll handle %d is nil", i)
		}
	}
	b := &Batch[T]{handles: handles}
	if len(handles) == 0 {
		return b, nil
	}
	futs := make([]Future[T], len(handles))
	aps := make([]asyncProposal[T], len(handles))
	b.futs = make([]*Future[T], len(handles))
	var groups []engineBatch
	for i, h := range handles {
		fut := &futs[i]
		b.futs[i] = fut
		if !h.prepareAsync(ctx, fut, &aps[i], vals[i]) {
			continue
		}
		er := h.rt.eng
		gi := -1
		for j := range groups {
			if groups[j].er == er {
				gi = j
				break
			}
		}
		if gi < 0 {
			groups = append(groups, engineBatch{er: er, props: make([]engine.Proposal, 0, len(handles)-i)})
			gi = len(groups) - 1
		}
		groups[gi].props = append(groups[gi].props, &aps[i])
	}
	for _, g := range groups {
		g.er.get().SubmitBatch(g.props)
	}
	return b, nil
}
