package setagreement

import (
	"context"
	"errors"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"setagreement/internal/core"
	"setagreement/internal/engine"
	"setagreement/obs"
)

// ErrEngineClosed resolves futures whose proposals were still queued or
// parked when their object's async engine shut down. Like cancellation, it
// poisons the handle: the proposal's half-written state cannot be resumed.
var ErrEngineClosed = errors.New("setagreement: async engine closed")

// engineRef lazily creates the proposal engine shared by every handle of
// one standalone object — or, through the arena, by every object of one
// arena, which is what lets one small engine multiplex thousands of keys'
// agreements. Creation is deferred to the first ProposeAsync so purely
// synchronous users never pay for it; peek exposes the engine to stats
// without forcing it into existence.
type engineRef struct {
	workers int
	// obsv, when non-nil, is installed on the engine at creation — before
	// the atomic publish of the engine pointer, which is the happens-before
	// edge SetObserver's contract asks for.
	obsv engine.Observer
	mu   sync.Mutex
	eng  atomic.Pointer[engine.Engine]
}

func (er *engineRef) get() *engine.Engine {
	if e := er.eng.Load(); e != nil {
		return e
	}
	er.mu.Lock()
	defer er.mu.Unlock()
	if e := er.eng.Load(); e != nil {
		return e
	}
	e := engine.New(er.workers)
	if er.obsv != nil {
		e.SetObserver(er.obsv)
	}
	er.eng.Store(e)
	return e
}

// observerFor adapts a collector to the engine's Observer interface,
// mapping the disabled configuration (nil collector) to a nil interface —
// a typed-nil *obs.Collector inside the interface would defeat the
// engine's `obsv != nil` fast path.
func observerFor(c *obs.Collector) engine.Observer {
	if c == nil {
		return nil
	}
	return c
}

func (er *engineRef) peek() *engine.Engine { return er.eng.Load() }

// ProposeAsync submits value v as this process and returns a Future that
// resolves to the decided value — the completion-based form of Propose.
// The call itself never blocks on agreement: the proposal runs on the
// object's engine (WithEngine), which advances it until it would wait,
// then parks it on the memory's change notifier (with the backoff duration
// as the timeout cap) instead of holding a goroutine — N stalled proposals
// across an arena cost O(engine workers) goroutines, not N. A park is the
// very descriptor a blocking Propose waits on at the same yield point.
// Handles with no backoff schedule configured run async under the default
// schedule (100µs–10ms cap, window 64) — an async proposal must yield,
// since yield points are where the engine multiplexes.
//
// Lifecycle is exactly Propose's, delivered through the future: ErrInUse
// while any Propose (sync or async) is in flight on the handle,
// ErrAlreadyProposed after a one-shot decision, and poisoning on
// cancellation — a ctx that ends before the proposal decides (even while
// parked) resolves the future with ctx.Err() and every later call fails
// with ErrPoisoned, just as cancelling a blocking Propose would. Engine
// shutdown resolves still-pending futures with ErrEngineClosed, poisoning
// likewise. A panic out of the proposal's own code — a custom codec's
// Encode or Decode — resolves the future with an error wrapping the panic
// value and poisons the handle; the engine keeps serving. Solo execution
// still decides without ever parking: the solo detection of the wait layer
// applies at engine yield points too.
func (h *Handle[T]) ProposeAsync(ctx context.Context, v T) *Future[T] {
	fut := newFuture[T]()
	ap := &asyncProposal[T]{}
	if h.prepareAsync(ctx, fut, ap, v) {
		h.rt.eng.get().Submit(ap)
	}
	return fut
}

// prepareAsync is the submit-side half ProposeAsync and the batch entry
// points (SubmitAll, Arena.SubmitBatch) share: claim the handle, arm the
// guard for engine-driven stepping and fill ap with the proposal to hand
// the engine. fut and ap are caller-allocated so batches can slab-allocate
// both. On an immediate lifecycle failure the future is resolved with the
// error and prepareAsync reports false: nothing reaches the engine.
func (h *Handle[T]) prepareAsync(ctx context.Context, fut *Future[T], ap *asyncProposal[T], v T) bool {
	// The span opens before the claim so even immediate lifecycle failures
	// leave a complete trace; on the disabled path StartSpan returns the
	// nil span and every call below it is a free no-op.
	sp := h.guard.rec.StartSpan(h.guard.obsKey, h.guard.obsProc)
	fut.span = sp
	var zero T
	if err := h.claim(); err != nil {
		sp.Failed()
		fut.resolve(zero, err)
		return false
	}
	// A dead context must fail (and poison, as in Propose) rather than let
	// a zero-step decision quietly succeed.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			h.st.Store(statePoisoned)
			sp.Canceled()
			fut.resolve(zero, err)
			return false
		}
	}
	*ap = asyncProposal[T]{h: h, fut: fut, ctx: ctx, val: v, span: sp}
	return true
}

// armAsync puts the handle's guard in engine-driven park mode and rebases
// its wait plan. Run by the engine on the proposal's first Advance — not at
// submit time — so the submit path stays a claim plus slab writes; handle
// exclusivity (claim) makes the engine the guard's only writer until the
// proposal finishes.
func (h *Handle[T]) armAsync() {
	g := &h.guard
	g.cur = g.wait
	if g.cur == nil {
		if h.asyncWait == nil {
			h.asyncWait = &waitPlan{
				backoff: backoffState{min: defaultWaitMin, max: defaultWaitMax, window: defaultWaitWindow},
			}
		}
		g.cur = h.asyncWait
	}
	g.park = true
	g.resetWait()
}

// asyncProposal adapts one engine-driven Propose — the handle, its guard
// in park mode, the algorithm's resumable attempt and the future to
// resolve — to the engine's Proposal interface. The attempt is built
// lazily on the first Advance (the WakeStart wake), keeping encoding and
// attempt construction off the submit path: batch submission then pays
// only claim-and-arm per proposal, and the constructor cost runs on the
// engine, overlapped across workers.
type asyncProposal[T comparable] struct {
	h    *Handle[T]
	fut  *Future[T]
	ctx  context.Context
	att  core.Attempt
	val  T
	span *obs.Span // nil when observability is disabled
}

var _ engine.Proposal = (*asyncProposal[int])(nil)

// Advance implements engine.Proposal: account for the wake, then step the
// machine until it decides, fails, or signals a park. The engine requires
// Advance not to panic, so a panic out of the proposal's own code (a custom
// codec) fails this one proposal — returning the zero Park, not parked —
// instead of the engine's worker.
func (ap *asyncProposal[T]) Advance(w engine.Wake) (engine.Park, bool) {
	h := ap.h
	g := &h.guard
	defer func() {
		if r := recover(); r != nil {
			ap.finish(0, panicError(r))
		}
	}()
	if w.Reason == engine.WakeStart {
		h.armAsync()
		ap.span.Started()
		ap.att = h.res.Begin(h.codec.Encode(ap.val))
	} else {
		ap.span.Woken(int(w.Reason), w.Waited, w.Pos)
		g.resumed(w.Waited, w.Reason == engine.WakeNotify)
		// The resumed Step runs yield-free (see guardMem.skipYield): the
		// woken proposal takes the loop iteration it was parked in, as a
		// blocking waiter proceeds when AwaitChange returns.
		g.skipYield = true
	}
	var (
		out    int
		err    error
		park   parkSignal
		parked bool
	)
	if ap.span != nil {
		// Label the worker's stepping for CPU profiles: samples taken while
		// this proposal advances carry its object key and wake reason.
		pprof.Do(context.Background(), pprof.Labels("sa_key", g.obsKey, "sa_wake", w.Reason.String()), func(context.Context) {
			out, err, park, parked = h.stepAsync(ap.ctx, ap.att)
		})
	} else {
		out, err, park, parked = h.stepAsync(ap.ctx, ap.att)
	}
	if parked {
		ap.span.Parked(park.cap)
		return engine.Park{Version: park.version, Cap: park.cap, Notifier: park.notifier, Ctx: ap.ctx}, true
	}
	ap.finish(out, err)
	return engine.Park{}, false
}

// Abort implements engine.Proposal: the engine shut down with this
// proposal queued or parked. Its partial writes stay behind, so the
// handle poisons, exactly as after cancellation.
func (ap *asyncProposal[T]) Abort(err error) {
	if errors.Is(err, engine.ErrClosed) {
		err = ErrEngineClosed
	}
	ap.finish(0, err)
}

// finish commits the proposal's outcome to the handle lifecycle —
// Handle.commit, the very code Propose's tail runs — and resolves the
// future with the result. The span closes with exactly one terminal,
// classified from the outcome, before the future resolves — so a trace's
// terminal always precedes its delivery event.
func (ap *asyncProposal[T]) finish(out int, err error) {
	ap.h.guard.park = false
	dec, cerr := ap.h.commit(out, err)
	switch {
	case cerr == nil:
		ap.span.Decided()
	case errors.Is(cerr, ErrEngineClosed):
		ap.span.Aborted()
	case errors.Is(cerr, context.Canceled) || errors.Is(cerr, context.DeadlineExceeded):
		ap.span.Canceled()
	default:
		ap.span.Failed()
	}
	ap.fut.resolve(dec, cerr)
}

// stepAsync runs the attempt through the handle's guard until it decides,
// its context dies, or a yield point signals a park. It is run's engine
// face: the same guard, the same cancelPanic unwinding, plus unwinding with
// the parkSignal the blocking path waits on in place. Any other panic is
// re-raised for Advance to contain.
func (h *Handle[T]) stepAsync(ctx context.Context, att core.Attempt) (out int, err error, park parkSignal, parked bool) {
	// Checked on every entry — initial and after every park — so a
	// cancellation always resolves the future even when the attempt could
	// decide without touching shared memory (the history shortcut).
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err, parkSignal{}, false
		}
	}
	g := &h.guard
	g.ctx = ctx
	defer func() {
		g.ctx = nil
		if r := recover(); r != nil {
			switch s := r.(type) {
			case parkSignal:
				park, parked = s, true
			case cancelPanic:
				err = s.err
			default:
				panic(r)
			}
		}
	}()
	for {
		o, done := att.Step(g)
		if done {
			return o, nil, parkSignal{}, false
		}
		// One full Step has completed since the resume; parking is fair
		// game again from the next Step's first yield point.
		g.skipYield = false
	}
}
