package setagreement

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"setagreement/internal/core"
	"setagreement/internal/shmem"
	"setagreement/obs"
)

// Handle is one claimed process's handle on an agreement object. A handle
// is obtained exactly once per process — Proc(id) on identified objects,
// Session() on anonymous ones — and owns everything that process needs
// across Propose calls: the algorithm's persistent local state, the
// process's resolved view of shared memory, its backoff state, and its
// instrumentation counters. Resolving all of that at claim time is what
// keeps Propose itself free of facade locks, map lookups and per-call
// allocation.
//
// A handle is one process: at most one Propose may be in flight on it (a
// concurrent call fails with ErrInUse), but claiming a handle and reading
// its Stats are safe from any goroutine.
type Handle[T comparable] struct {
	rt      *runtime
	codec   Codec[T]
	proc    core.Process
	res     core.Resumable // proc's resumable face, resolved at claim time
	id      int
	oneShot bool
	st      atomic.Uint32
	guard   guardMem
	stats   handleStats
	// asyncWait is the wait plan engine-driven Proposes fall back to when
	// no schedule is configured (a sync Propose then never yields, but an
	// async one must — yield points are where the engine multiplexes).
	// Allocated at the handle's first ProposeAsync, reused afterwards.
	asyncWait *waitPlan
	// owner is the arena object that issued the handle (nil on standalone
	// objects); it is told exactly once, when Release succeeds. Set before
	// the handle escapes to the caller, never mutated afterwards.
	owner *ArenaObject[T]
}

// handle lifecycle states, stored in Handle.st.
type state = uint32

const (
	stateFree state = iota
	stateBusy
	stateDone
	statePoisoned
	stateReleased
)

// ID returns the process identifier the handle was claimed for, or -1 for
// anonymous sessions.
func (h *Handle[T]) ID() int { return h.id }

// Propose submits value v as this process and returns the decided value.
// On repeated objects successive calls access successive instances; on
// one-shot objects a second call fails with ErrAlreadyProposed. Propose
// blocks until a decision is reached or ctx is cancelled; cancellation
// poisons the handle (its half-finished operation cannot be resumed), and
// every later call fails with ErrPoisoned. A codec Decode failure — only
// possible with a misbehaving custom codec — also poisons the handle, and
// so does a panic out of a custom codec's Encode or Decode: Propose then
// returns an error wrapping the panic value, as ProposeAsync does.
func (h *Handle[T]) Propose(ctx context.Context, v T) (dec T, err error) {
	if err = h.claim(); err != nil {
		return dec, err
	}
	defer h.contain(&dec, &err)
	// Branch-guarded rather than deferred: the disabled path pays one nil
	// check and the solo hot path stays allocation-free either way.
	var start time.Time
	if h.guard.rec != nil {
		start = time.Now()
	}
	out, err := h.run(ctx, h.codec.Encode(v))
	if h.guard.rec != nil {
		h.guard.rec.SyncPropose(time.Since(start), int(h.guard.obsProc))
	}
	return h.commit(out, err)
}

// claim moves the handle free→busy for one Propose (sync or async),
// translating every other lifecycle state into its error.
func (h *Handle[T]) claim() error {
	for {
		// CAS-first: the free→busy transition is the hot path (one atomic
		// op); the state switch below is only reached on lifecycle errors
		// or a lost race.
		if h.st.CompareAndSwap(stateFree, stateBusy) {
			h.stats.proposes.Add(1)
			return nil
		}
		switch h.st.Load() {
		case stateBusy:
			return ErrInUse
		case stateDone:
			return ErrAlreadyProposed
		case statePoisoned:
			return ErrPoisoned
		case stateReleased:
			return ErrReleased
		}
	}
}

// commit ends a claimed Propose with the machine's outcome, shared by the
// sync driver and the async finish so the two paths cannot diverge: any
// error poisons (half-written state cannot be resumed), and the decode
// runs before the lifecycle transition — a decode failure (a misbehaving
// custom codec) must not park a one-shot handle at Done with its decision
// irretrievable; it poisons instead, the handle's typed view of the
// decided code being broken.
func (h *Handle[T]) commit(out int, err error) (T, error) {
	var zero T
	if err != nil {
		h.st.Store(statePoisoned)
		return zero, err
	}
	dec, err := h.codec.Decode(out)
	if err != nil {
		h.st.Store(statePoisoned)
		return zero, err
	}
	if h.oneShot {
		h.st.Store(stateDone)
	} else {
		h.st.Store(stateFree)
	}
	return dec, nil
}

// contain ends a claimed sync Propose that panicked — out of a custom
// codec, the only caller-supplied code it runs — the way a failed one ends:
// the handle poisons and the call returns an error wrapping the panic
// value, instead of unwinding into the caller with the handle stuck busy.
// Deferred directly by Propose, so its recover stops the panic.
func (h *Handle[T]) contain(dec *T, err *error) {
	if r := recover(); r != nil {
		h.st.Store(statePoisoned)
		var zero T
		*dec, *err = zero, panicError(r)
	}
}

// panicError wraps a panic value recovered from a proposal's own code as
// the error the proposal fails with.
func panicError(r any) error {
	err, ok := r.(error)
	if !ok {
		err = fmt.Errorf("%v", r)
	}
	return fmt.Errorf("setagreement: proposal panicked: %w", err)
}

// run executes one Propose of the underlying algorithm through the
// handle's guard. The guard is reused across calls: only the context and
// wait-plan progress change per call.
func (h *Handle[T]) run(ctx context.Context, code int) (out int, err error) {
	// Check cancellation once up front: the per-step gate below never fires
	// for a Propose that decides without touching shared memory (the
	// repeated algorithm's history shortcut), and a call with a dead
	// context must fail rather than quietly succeed.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	h.guard.ctx = ctx
	h.guard.cur = h.guard.wait
	h.guard.park = false
	h.guard.resetWait()
	defer func() {
		h.guard.ctx = nil
		if r := recover(); r != nil {
			cp, ok := r.(cancelPanic)
			if !ok {
				panic(r)
			}
			err = cp.err
		}
	}()
	return h.proc.Propose(&h.guard, code), nil
}

// Release permanently retires the handle: every later Propose fails with
// ErrReleased. Releasing is how a process tells the object it has left —
// on arena objects a key whose handles are all released becomes eligible
// for idle eviction, and its shared memory is recycled for the next object.
// Release is idempotent and safe to call on done or poisoned handles; it
// fails with ErrInUse if a Propose is in flight (a handle is one process —
// finish or cancel the operation first). The process id stays consumed:
// release does not make the id claimable again on the same object.
func (h *Handle[T]) Release() error {
	for {
		st := h.st.Load()
		switch st {
		case stateBusy:
			return ErrInUse
		case stateReleased:
			return nil
		}
		if h.st.CompareAndSwap(st, stateReleased) {
			if h.owner != nil {
				h.owner.released(h)
			}
			return nil
		}
	}
}

// Stats is a point-in-time view of a handle's instrumentation. Proposes,
// Steps, Scans, WaitTime, Wakeups and SpuriousWakeups are exact per-handle
// counters; MemSteps and CASRetries come from the object's shared memory
// backend and therefore aggregate over all handles of the object
// (CASRetries is zero on backends that never retry, such as the mutex one).
type Stats struct {
	// Proposes counts Propose calls started on this handle.
	Proposes int64
	// Steps counts shared-memory operations this handle issued.
	Steps int64
	// Scans counts the snapshot scans among those operations.
	Scans int64
	// WaitTime is the total time this handle spent waiting at contended
	// yield points of the WithBackoff schedule — blocked waits and engine
	// parks alike, whether a memory change or the cap ended them.
	WaitTime time.Duration
	// Wakeups counts waits ended by a memory change rather than by the cap.
	Wakeups int64
	// SpuriousWakeups counts wakeups the notifier absorbed where the
	// memory's version had not actually advanced; the waiter re-armed.
	SpuriousWakeups int64
	// ScansAdopted always reads 0: scan combining, whose adopted scans it
	// counted, has been removed.
	//
	// Deprecated: kept only for readers built against the old field; it is
	// deleted with the next benchmark change.
	ScansAdopted int64
	// MemSteps counts operations executed by the object's shared memory,
	// across all handles.
	MemSteps int64
	// CASRetries counts failed compare-and-swap installs in the object's
	// memory backend, across all handles.
	CASRetries int64
}

// Stats returns the handle's instrumentation counters. It is safe to call
// concurrently with an in-flight Propose — synchronous or asynchronous —
// e.g. from a monitoring loop.
//
// Consistency under concurrency: every counter is an independent atomic,
// so a snapshot taken mid-Propose is not a single linearization point
// across fields, but each individual counter is exact and monotone
// (successive snapshots never show a field decreasing). Paired fields are
// ordered so a snapshot never tears them the misleading way: WaitTime is
// charged before the Wakeups increment of the wait it ends — for blocking
// waits and engine parks alike — so a snapshot showing a wakeup already
// includes that wakeup's wait time.
func (h *Handle[T]) Stats() Stats {
	s := Stats{
		Proposes:        h.stats.proposes.Load(),
		Steps:           h.stats.steps.Load(),
		Scans:           h.stats.scans.Load(),
		WaitTime:        time.Duration(h.stats.waitNS.Load()),
		Wakeups:         h.stats.wakeups.Load(),
		SpuriousWakeups: h.stats.spurious.Load(),
	}
	if st, ok := h.rt.mem.(shmem.Stepper); ok {
		s.MemSteps = st.Steps()
	}
	if cr, ok := h.rt.mem.(shmem.CASRetrier); ok {
		s.CASRetries = cr.CASRetries()
	}
	return s
}

// handleStats holds the per-handle counters behind Stats. Counters are
// atomic so Stats can be read while a Propose is running.
type handleStats struct {
	proposes atomic.Int64
	steps    atomic.Int64
	scans    atomic.Int64
	waitNS   atomic.Int64
	wakeups  atomic.Int64
	spurious atomic.Int64
}

// cancelPanic unwinds a Propose blocked inside the algorithm loop when its
// context is cancelled. It never escapes run.
type cancelPanic struct{ err error }

// parkSignal is the park descriptor a contended yield point produces: wait
// until notifier's version passes version, for at most cap. notifier is nil
// when the memory lacks the capability — the park is then cap-only. The
// sync driver consumes it in place (guardMem.block); the engine driver
// unwinds the Step with it as a panic and turns it into an engine.Park. It
// never escapes either driver.
type parkSignal struct {
	version  uint64
	cap      time.Duration
	notifier shmem.Notifier
}

// waitPlan is the per-handle wait state: the escalation schedule (reused
// backoffState) plus the solo-detection baseline — the notifier version and
// own mutation count at the previous yield point, whose deltas tell whether
// any other process has written since.
type waitPlan struct {
	backoff     backoffState
	lastVersion uint64
	lastOwnMuts uint64
}

// guardMem wraps a process's resolved memory with context cancellation,
// the wait schedule and step accounting. One guardMem lives inside each
// handle and is reused across Propose calls — synchronous and asynchronous
// alike, since a handle is one process and runs at most one Propose at a
// time.
type guardMem struct {
	inner shmem.Mem
	ctx   context.Context
	// wait is the configured wait plan (nil when no WithBackoff schedule is
	// set); cur is the plan the current Propose actually runs under — wait
	// for sync calls, the handle's async fallback when an engine drives a
	// scheduleless handle.
	wait *waitPlan
	cur  *waitPlan
	// park switches the yield points from blocking to signaling: instead of
	// holding the goroutine, the guard unwinds with the parkSignal the
	// engine turns into a completion-based park.
	// skipYield suppresses parking until the resumed Step completes (the
	// async driver clears it as each Step returns). A park unwinds the
	// whole Step and a resume re-runs it from the top, so the Step is the
	// unit of restart — and must also be the unit of progress: a woken
	// proposal that could re-park at any of the re-run's yield points
	// would, under a yield-every-op schedule, re-execute its first
	// operation and park at its second forever. Running the resumed Step
	// yield-free is the engine's form of the woken-waiter-proceeds rule.
	park      bool
	skipYield bool
	stats     *handleStats
	// notifier is the memory's change-notification capability, resolved at
	// claim time (nil when the backend lacks it — every park is then
	// cap-only). notifyExact records whether the notifier's version ticks
	// exactly once per logical mutation this guard issues (true on the
	// atomic snapshot runtime,
	// where guard operations map 1:1 onto backend operations); only then
	// can own writes be subtracted out for solo detection.
	notifier    shmem.Notifier
	notifyExact bool
	// ownMuts counts mutating operations (Write, Update) issued through
	// this guard. Only the owning goroutine touches it.
	ownMuts uint64
	// rec is the object's observability collector (WithObservability; nil
	// when disabled — every call through it is then a nil-receiver no-op).
	// obsKey and obsProc key its events: the arena key the handle's object
	// is registered under ("" for standalone objects) and the process id.
	// Set once at handle creation, never mutated afterwards.
	rec     *obs.Collector
	obsKey  string
	obsProc int32
}

var (
	_ shmem.Mem        = (*guardMem)(nil)
	_ shmem.TryScanner = (*guardMem)(nil)
)

// resetWait rewinds the current wait plan for a fresh Propose: the
// escalation restarts and every memory change before this call counts as
// seen.
func (g *guardMem) resetWait() {
	g.skipYield = false
	if g.cur == nil {
		return
	}
	g.cur.backoff.reset()
	if g.notifier != nil {
		g.cur.lastVersion = g.notifier.Version()
		g.cur.lastOwnMuts = g.ownMuts
	}
}

func (g *guardMem) pre() {
	g.stats.steps.Add(1)
	if g.ctx != nil {
		select {
		case <-g.ctx.Done():
			panic(cancelPanic{err: g.ctx.Err()})
		default:
		}
	}
	if g.cur != nil {
		if d := g.cur.backoff.step(); d > 0 && !g.skipYield {
			if p, contended := g.yield(d); contended {
				if g.park {
					panic(p)
				}
				g.block(p)
			}
		}
	}
}

// yield is the one yield decision, shared by the sync and engine drivers.
// A process that has seen no foreign write since its last yield point keeps
// stepping (contended=false): waiting solo could only end by the cap, so a
// solo process is never blocked or parked and m-obstruction-freedom carries
// over unchanged. Otherwise it returns the park descriptor — wait past the
// current version for at most d. The cap is the liveness fallback: the
// conflicting process may have decided and left, in which case no wakeup
// ever comes. Only the atomic snapshot runtime's exact version lets own
// writes be subtracted out; elsewhere every yield counts as contended.
func (g *guardMem) yield(d time.Duration) (p parkSignal, contended bool) {
	nt := g.notifier
	if nt == nil {
		return parkSignal{cap: d}, true
	}
	v := nt.Version()
	if g.notifyExact {
		foreign := v-g.cur.lastVersion != g.ownMuts-g.cur.lastOwnMuts
		g.cur.lastVersion = v
		g.cur.lastOwnMuts = g.ownMuts
		if !foreign {
			g.rec.SoloRun()
			return parkSignal{}, false
		}
	}
	return parkSignal{version: v, cap: d, notifier: nt}, true
}

// block is the sync driver's park: it waits in AwaitChange for the memory
// to move past p.version, or — with no notifier — just for the cap, both
// under a timeout of p.cap derived from the Propose context, so
// cancellation interrupts the wait promptly and poisons the handle.
func (g *guardMem) block(p parkSignal) {
	ctx := g.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	wctx, cancel := context.WithTimeout(ctx, p.cap)
	woke := false
	if p.notifier != nil {
		spurious, err := p.notifier.AwaitChange(wctx, p.version)
		g.stats.spurious.Add(int64(spurious))
		woke = err == nil
	} else {
		<-wctx.Done()
	}
	cancel()
	waited := time.Since(start)
	g.rec.Wait(g.obsKey, g.obsProc, waited, woke)
	g.resumed(waited, woke)
	if !woke && g.ctx != nil && g.ctx.Err() != nil {
		panic(cancelPanic{err: g.ctx.Err()})
	}
}

// resumed is the post-park bookkeeping both drivers share. Wait time is
// charged before the wakeup is counted (the Stats ordering contract: a
// snapshot showing a wakeup includes its wait). Changes that landed during
// the wait are visible to the next reads, so the solo detector re-bases past
// them rather than mistake them for fresh contention at the next yield point.
func (g *guardMem) resumed(waited time.Duration, woke bool) {
	g.stats.waitNS.Add(int64(waited))
	if woke {
		g.stats.wakeups.Add(1)
	}
	if g.notifier != nil {
		g.cur.lastVersion = g.notifier.Version()
		g.cur.lastOwnMuts = g.ownMuts
	}
}

func (g *guardMem) Read(reg int) shmem.Value {
	g.pre()
	return g.inner.Read(reg)
}

func (g *guardMem) Write(reg int, v shmem.Value) {
	g.pre()
	g.ownMuts++
	g.inner.Write(reg, v)
}

func (g *guardMem) Update(snap, comp int, v shmem.Value) {
	g.pre()
	g.ownMuts++
	g.inner.Update(snap, comp, v)
}

func (g *guardMem) Scan(snap int) []shmem.Value {
	g.pre()
	g.stats.scans.Add(1)
	return g.inner.Scan(snap)
}

// TryScan forwards the inner memory's bounded-scan capability so algorithms
// that interleave other work between scan attempts (the anonymous H-register
// poll over a non-blocking substrate) keep working through the guard; each
// attempt passes the cancellation/backoff gate. Wait-free substrates always
// succeed, matching shmem.TryScanner's contract.
func (g *guardMem) TryScan(snap, attempts int) ([]shmem.Value, bool) {
	g.pre()
	g.stats.scans.Add(1)
	if ts, ok := g.inner.(shmem.TryScanner); ok {
		return ts.TryScan(snap, attempts)
	}
	return g.inner.Scan(snap), true
}
