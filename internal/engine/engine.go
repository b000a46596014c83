// Package engine is the notifier-driven proposal multiplexer: a small
// worker pool that drives many resumable proposals, parking each one that
// would block on a completion-style wake registration
// (shmem.Notifier.RegisterWake) plus a timeout timer and an optional
// context watch — all callbacks, no goroutines — so N stalled proposals
// across any number of agreement objects cost O(workers) goroutines
// instead of N; with every proposal parked they cost none at all, the
// drain goroutines being transient.
//
// The engine is deadlock-free by the very property the paper proves:
// m-obstruction-freedom. A proposal a worker (a drain goroutine, or a
// goroutine lending itself through Help) advances while every other
// proposal is parked or queued is running solo, and a solo run always
// decides — so a worker can never be stuck holding a proposal that needs
// another queued proposal to move, however many workers there are. Beyond
// m concurrently running proposals the usual caveat applies, exactly as
// for goroutine-per-Propose execution: progress then comes from the park
// caps (a parked proposal resumes stepping after its cap even if no wakeup
// arrives), which bound every wait just like the backoff schedule caps a
// blocking wait.
//
// The engine knows nothing about agreement, codecs or handles: a Proposal
// is anything that can be advanced until it either finishes or asks to be
// parked. The public package's async layer adapts its propose machinery to
// this interface.
package engine

import (
	"container/heap"
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"setagreement/internal/shmem"
)

// ErrClosed is the error parked and queued proposals are aborted with when
// the engine shuts down, and the abort reason for submissions to a closed
// engine.
var ErrClosed = errors.New("engine: closed")

// WakeReason says why a proposal is being advanced.
type WakeReason int

const (
	// WakeStart is the first advance after Submit.
	WakeStart WakeReason = iota
	// WakeNotify means the memory the proposal parked on changed.
	WakeNotify
	// WakeTimeout means the park's cap elapsed with no change — the
	// liveness fallback, equivalent to a blocking wait reaching its cap.
	WakeTimeout
	// WakeCancel means the proposal's context ended while it was parked.
	WakeCancel
)

// String names the reason.
func (r WakeReason) String() string {
	switch r {
	case WakeStart:
		return "start"
	case WakeNotify:
		return "notify"
	case WakeTimeout:
		return "timeout"
	case WakeCancel:
		return "cancel"
	default:
		return "wake(?)"
	}
}

// Wake describes one resumption: the reason and, for resumptions of a
// parked proposal, how long it was parked. The proposal uses it for its
// own wait accounting.
type Wake struct {
	Reason WakeReason
	Waited time.Duration
	// Pos is the run-queue position the wake placed the proposal at: 0
	// when it was handed directly to a drain goroutine, the insertion
	// index otherwise (for batch submissions, the proposal's index within
	// its batch). Advisory, for observability only — by the time the
	// proposal actually runs the queue ahead of it has drained.
	Pos int
}

// Park describes how a proposal that would block wants to wait.
type Park struct {
	// Notifier, when non-nil, wakes the proposal at the first mutation
	// that takes the memory's version past Version. Nil parks on the cap
	// alone (a blind timed park, for memories without the capability).
	Notifier shmem.Notifier
	// Version is the change version the proposal has already seen.
	Version uint64
	// Cap bounds the park: with no wakeup by then, the proposal resumes
	// stepping anyway. Must be positive; it is what keeps a park from
	// outliving vanished contention.
	Cap time.Duration
	// Ctx, when non-nil, wakes the proposal when the context ends, so
	// cancellation interrupts a park as promptly as it interrupts a
	// blocking wait.
	Ctx context.Context
}

// Proposal is the engine's view of one multiplexed operation.
type Proposal interface {
	// Advance runs the proposal until it finishes or would block.
	// parked=false means the proposal is done — it has already delivered
	// its own outcome (resolved its future); the engine merely drops it.
	// parked=true hands the engine the park descriptor. Advance runs on
	// an engine worker; it must return rather than block, and must not
	// panic.
	Advance(w Wake) (park Park, parked bool)
	// Abort tells a proposal the engine will never advance again (it was
	// queued or parked at engine shutdown, or submitted after it) to
	// deliver err as its outcome. Called at most once, and never after
	// Advance reported done.
	Abort(err error)
}

// Observer receives engine-level lifecycle callbacks: drain-goroutine
// spawns and exits, batch-descriptor expansions and engine shutdown.
// Implementations must be safe for concurrent use and must not block —
// callbacks run on drain goroutines and inside Close. The public
// package's obs.Collector implements it; a nil Observer (the default)
// disables the callbacks entirely.
type Observer interface {
	// DrainStarted: a transient drain goroutine spawned.
	DrainStarted()
	// DrainStopped: a drain goroutine exited, releasing its slot.
	DrainStopped()
	// BatchExpanded: one batch descriptor of n proposals was materialized
	// into its per-proposal task slab.
	BatchExpanded(n int)
	// EngineClosed: the engine shut down, aborting the given number of
	// queued and parked proposals.
	EngineClosed(aborted int)
}

// task states, kept with the pending wake reason and the park generation
// in one atomic word so racing wakers, the parker and the closer agree on
// a single transition. Layout: bits 0-2 state, bits 3-5 reason, bits 6+
// the generation — incremented at every park, captured by that park's
// wake sources, and part of every CAS. The generation is what makes a
// stale wake inert end to end: a source of park N that was popped or
// drained before revocation could otherwise land after the task has
// re-parked as N+1 and cut that park short; with the generation in the
// CASed word, its compare can only match its own park.
const (
	stQueued    uint64 = iota // in the run queue; reason bits say why
	stRunning                 // a worker is inside Advance
	stParking                 // Advance asked to park; wake sources arming
	stParked                  // parked; wake sources armed
	stDead                    // aborted; never advanced again
	stMask      = 7
	reasonShift = 3
	genShift    = 6
)

// word assembles a task state word.
func word(state uint64, reason WakeReason, gen uint64) uint64 {
	return state | uint64(reason)<<reasonShift | gen<<genShift
}

// task wraps one submitted proposal with its park bookkeeping. The wake
// source fields are owned by whichever goroutine holds the task through a
// state transition on st (all transitions are CASes on the one atomic, so
// ownership hands off with it); wakers never touch them — a waker only
// CASes st and enqueues.
type task struct {
	p  Proposal
	st atomic.Uint64

	// batch, when non-nil, marks this task as an unexpanded batch
	// descriptor: it carries SubmitBatch's proposals instead of running one
	// itself. The first drain goroutine to dequeue it materializes the
	// per-proposal task slab (see expand) — submission stays O(1) in batch
	// size on the submitter's side of the handoff.
	batch []Proposal

	// pos is the run-queue position of the task's latest enqueue, reported
	// to the proposal as Wake.Pos. Written by whoever enqueues the task —
	// under e.mu for queue inserts, before the go statement for direct
	// spawns — both of which happen-before the drain's read in run.
	pos int32

	parkStart  time.Time
	cancelWake func()      // notifier registration, nil when none
	cap        *capEntry   // deadline in the engine's timer wheel
	stopCtx    func() bool // context watch, nil when none
}

// yieldEvery is how many tasks the engine runs, counted engine-wide across
// drains and helpers, between two scheduling points. Park caps fire on the
// cap wheel's time.AfterFunc goroutine and through context.AfterFunc; when
// every processor is busy running tasks and never enters the scheduler,
// those goroutines wait for a processor, and so do the parks they end.
const yieldEvery = 64

// Engine multiplexes proposals over at most `workers` concurrent drain
// goroutines. The goroutines are transient: one is spawned when work
// arrives and none is free, and it exits when the run queue is empty — so
// an engine whose proposals are all parked (or that is idle) holds zero
// goroutines, and the configured worker count is a concurrency ceiling,
// not a standing pool. Goroutines that call Help run queued tasks too,
// beside the drains and outside their ceiling. An Engine is safe for
// concurrent use.
type Engine struct {
	workers int

	mu     sync.Mutex
	queue  []*task
	parked map[*task]struct{}
	active int // drain goroutines currently alive (≤ workers)
	closed bool

	inFlight atomic.Int64
	wg       sync.WaitGroup
	ran      atomic.Uint64 // tasks run, for the yieldEvery scheduling point

	caps capWheel

	// obsv, when non-nil, receives the engine's lifecycle callbacks.
	// Installed by SetObserver before the engine serves traffic, never
	// mutated afterwards.
	obsv Observer

	// parkHook, when non-nil, is called at each boundary of the park
	// protocol (see ParkStage). Test seam only; set before any Submit.
	parkHook func(ParkStage)

	// yieldHook, when non-nil, is called at each yieldEvery scheduling
	// point. Test seam only; set before any Submit.
	yieldHook func()
}

// ParkStage identifies a boundary inside the park protocol at which a
// concurrent publish could race the parking task. The stages let a
// deterministic test drive a wakeup into each window of park() in turn —
// including the window between the decision to park and the wake-source
// registration, which the notifier's version re-check is what keeps from
// losing wakeups.
type ParkStage int

const (
	// ParkRegistered: the task has entered the parked set but no wake
	// source is armed yet. A publish here is only caught by the version
	// re-check inside Notifier.RegisterWake.
	ParkRegistered ParkStage = iota
	// ParkArmed: all wake sources are armed, final stParking→stParked CAS
	// not yet attempted. A publish here fires the registered callback,
	// which CASes the still-parking task to queued.
	ParkArmed
	// ParkCommitted: the final CAS succeeded; the task is parked and any
	// publish from now on is an ordinary wake.
	ParkCommitted
	// ParkAbandoned: the final CAS failed because a wake source (or Close)
	// moved the task first; the parker is about to re-enqueue or abort it.
	ParkAbandoned
)

// String names the stage.
func (s ParkStage) String() string {
	switch s {
	case ParkRegistered:
		return "registered"
	case ParkArmed:
		return "armed"
	case ParkCommitted:
		return "committed"
	case ParkAbandoned:
		return "abandoned"
	default:
		return "stage(?)"
	}
}

// SetParkHook installs a test seam invoked at each ParkStage boundary of
// every park. It must be installed before proposals are submitted and the
// hook must be safe to call from drain goroutines. Passing nil removes it.
func (e *Engine) SetParkHook(fn func(ParkStage)) { e.parkHook = fn }

// SetYieldHook installs a test seam invoked at each scheduling point the
// engine takes after every yieldEvery tasks. Like SetParkHook it must be
// installed before proposals are submitted. Passing nil removes it.
func (e *Engine) SetYieldHook(fn func()) { e.yieldHook = fn }

// SetObserver installs the engine's lifecycle observer. Like SetParkHook
// it must be installed before proposals are submitted; the publisher of
// the engine pointer (the lazy engineRef in the public package) provides
// the happens-before edge to the drain goroutines that read it.
func (e *Engine) SetObserver(o Observer) { e.obsv = o }

// New builds an engine with the given worker count; workers < 1 selects
// GOMAXPROCS.
func New(workers int) *Engine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, parked: make(map[*task]struct{})}
	e.caps.e = e
	return e
}

// stopSources revokes a task's unfired wake sources. Callable only by the
// goroutine that owns the task through its current state transition.
func (e *Engine) stopSources(t *task) {
	if t.cancelWake != nil {
		t.cancelWake()
		t.cancelWake = nil
	}
	if t.cap != nil {
		e.caps.remove(t.cap)
		t.cap = nil
	}
	if t.stopCtx != nil {
		t.stopCtx()
		t.stopCtx = nil
	}
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// InFlight returns the number of submitted proposals not yet finished or
// aborted — running, queued and parked together.
func (e *Engine) InFlight() int64 { return e.inFlight.Load() }

// Parked returns the number of proposals currently parked (waiting on a
// wake source rather than holding a worker).
func (e *Engine) Parked() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int64(len(e.parked))
}

// Submit hands the engine one proposal. On a closed engine the proposal is
// aborted with ErrClosed before Submit returns.
func (e *Engine) Submit(p Proposal) {
	t := &task{p: p}
	t.st.Store(word(stQueued, WakeStart, 0))
	e.inFlight.Add(1)
	e.enqueue(t)
}

// SubmitBatch hands the engine many proposals through one run-queue
// transition, io_uring style: the submitter enqueues a single batch
// descriptor — one allocation, one in-flight move, one lock acquisition,
// at most one goroutine spawn, whatever the batch size — and rings the
// bell once. The first drain goroutine to reach the descriptor expands it
// into the per-proposal task slab on the engine's side of the handoff
// (see expand), so the materialization cost overlaps useful work instead
// of serializing the submitter. The batch's proposals start in submission
// order. On a closed engine every proposal is aborted with ErrClosed
// before SubmitBatch returns. The slice is owned by the engine once
// submitted; the caller must not reuse it.
func (e *Engine) SubmitBatch(ps []Proposal) {
	if len(ps) == 0 {
		return
	}
	e.inFlight.Add(int64(len(ps)))
	t := &task{batch: ps}
	t.st.Store(word(stQueued, WakeStart, 0))
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.abort(t)
		return
	}
	if e.active < e.workers {
		e.active++
		e.wg.Add(1)
		e.mu.Unlock()
		t.pos = 0
		go e.drain(t)
		return
	}
	t.pos = int32(len(e.queue))
	e.queue = append(e.queue, t)
	e.mu.Unlock()
}

// expand materializes a batch descriptor into its per-proposal task slab:
// the tail of the batch is queued (spawning drains up to the worker
// ceiling for it), and the head task is returned for the calling drain to
// run directly. Returns nil if the engine closed first — the batch is
// then fully aborted and the caller releases its slot.
func (e *Engine) expand(bt *task) *task {
	ps := bt.batch
	bt.batch = nil
	tasks := make([]task, len(ps))
	for i := range tasks {
		tasks[i].p = ps[i]
		tasks[i].pos = int32(i) // batch-relative position, reported via Wake.Pos
		tasks[i].st.Store(word(stQueued, WakeStart, 0))
	}
	if o := e.obsv; o != nil {
		o.BatchExpanded(len(ps))
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		for i := range tasks {
			e.abort(&tasks[i])
		}
		return nil
	}
	spawn := min(e.workers-e.active, len(tasks)-1)
	e.active += spawn
	e.wg.Add(spawn)
	for i := 1 + spawn; i < len(tasks); i++ {
		e.queue = append(e.queue, &tasks[i])
	}
	e.mu.Unlock()
	for i := 0; i < spawn; i++ {
		go e.drain(&tasks[1+i])
	}
	return &tasks[0]
}

// enqueue puts a woken (or fresh) task on the run queue, spawning a drain
// goroutine when one is allowed and none would pick it up. On a closed
// engine the task is aborted instead.
func (e *Engine) enqueue(t *task) {
	e.mu.Lock()
	delete(e.parked, t)
	if e.closed {
		e.mu.Unlock()
		e.abort(t)
		return
	}
	if e.active < e.workers {
		e.active++
		e.wg.Add(1)
		e.mu.Unlock()
		t.pos = 0
		go e.drain(t)
		return
	}
	t.pos = int32(len(e.queue))
	e.queue = append(e.queue, t)
	e.mu.Unlock()
}

// abort delivers ErrClosed to a task the engine will never advance again.
// The caller must have won the task's terminal transition (or hold it
// exclusively, as enqueue does for a task it just removed).
func (e *Engine) abort(t *task) {
	t.st.Store(stDead)
	e.stopSources(t)
	if t.batch != nil {
		// An unexpanded batch descriptor: abort every proposal it carries.
		for _, p := range t.batch {
			p.Abort(ErrClosed)
		}
		e.inFlight.Add(-int64(len(t.batch)))
		t.batch = nil
		return
	}
	t.p.Abort(ErrClosed)
	e.inFlight.Add(-1)
}

// drain is the entry point of one transient drain goroutine: it reports
// the spawn/exit to the observer and, when one is installed, runs the
// loop under a pprof goroutine label so CPU profiles attribute engine
// work to the drain role.
func (e *Engine) drain(t *task) {
	defer e.wg.Done()
	if o := e.obsv; o != nil {
		o.DrainStarted()
		defer o.DrainStopped()
		pprof.Do(context.Background(), pprof.Labels("sa_role", "engine_drain"), func(context.Context) {
			e.drainLoop(t)
		})
		return
	}
	e.drainLoop(t)
}

// drainLoop advances its task, then keeps pulling queued tasks until the
// queue is empty (or the engine closes) and exits, releasing its
// concurrency slot. Parked tasks respawn drains through enqueue when they
// wake.
func (e *Engine) drainLoop(t *task) {
	for {
		if t.batch != nil {
			if t = e.expand(t); t == nil {
				e.mu.Lock()
				e.active--
				e.mu.Unlock()
				return
			}
		}
		e.run(t)
		e.mu.Lock()
		if len(e.queue) == 0 || e.closed {
			e.active--
			e.mu.Unlock()
			return
		}
		t = e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
	}
}

// Help runs the task at the head of the run queue on the calling goroutine
// and reports whether there was one: false when the queue is empty or the
// engine is closed. It is how a goroutine that waits for the engine's
// results lends the engine its processor instead of waiting for a drain to
// be scheduled. The helper takes no worker slot, so drains still spawn for
// new work up to the ceiling; Close waits for a Help in progress, as it
// waits for the drains. A batch descriptor at the head is expanded as a
// drain would, and the helper runs its first proposal.
func (e *Engine) Help() bool {
	e.mu.Lock()
	if len(e.queue) == 0 || e.closed {
		e.mu.Unlock()
		return false
	}
	t := e.queue[0]
	e.queue = e.queue[1:]
	e.wg.Add(1)
	e.mu.Unlock()
	defer e.wg.Done()
	if t.batch != nil {
		if t = e.expand(t); t == nil {
			return true
		}
	}
	e.run(t)
	return true
}

// run advances one dequeued task until it finishes or parks, then, after
// every yieldEvery tasks the engine has run, yields the processor once.
func (e *Engine) run(t *task) {
	e.advance(t)
	if e.ran.Add(1)%yieldEvery == 0 {
		if e.yieldHook != nil {
			e.yieldHook()
		}
		runtime.Gosched()
	}
}

// advance runs one task's Advance and parks or retires it.
func (e *Engine) advance(t *task) {
	s := t.st.Load()
	w := Wake{Reason: WakeReason(s >> reasonShift & stMask), Pos: int(t.pos)}
	t.st.Store(word(stRunning, 0, s>>genShift))
	// The task reached the queue either fresh (no sources armed) or through
	// a waker's CAS on its state word, which hands this worker ownership of
	// the wake sources the parker armed; the ones that did not fire are
	// revoked here, before they can misfire on the next park.
	if w.Reason != WakeStart {
		w.Waited = time.Since(t.parkStart)
	}
	e.stopSources(t)
	park, parked := t.p.Advance(w)
	if !parked {
		e.inFlight.Add(-1)
		return
	}
	e.park(t, park)
}

// park arms the task's wake sources and releases the worker. The state
// word choreographs the race with wakers: sources are armed in state
// stParking; a source that fires that early CASes to stQueued but leaves
// enqueueing to this goroutine, which detects the lost final CAS.
func (e *Engine) park(t *task, park Park) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.abort(t)
		return
	}
	e.parked[t] = struct{}{}
	e.mu.Unlock()
	if e.parkHook != nil {
		e.parkHook(ParkRegistered)
	}

	t.parkStart = time.Now()
	gen := t.st.Load()>>genShift + 1
	t.st.Store(word(stParking, 0, gen))
	if park.Notifier != nil {
		t.cancelWake = park.Notifier.RegisterWake(park.Version, func() { e.wake(t, WakeNotify, gen) })
	}
	t.cap = e.caps.add(t, park.Cap, gen)
	if park.Ctx != nil {
		t.stopCtx = context.AfterFunc(park.Ctx, func() { e.wake(t, WakeCancel, gen) })
	}
	if e.parkHook != nil {
		e.parkHook(ParkArmed)
	}
	if t.st.CompareAndSwap(word(stParking, 0, gen), word(stParked, 0, gen)) {
		if e.parkHook != nil {
			e.parkHook(ParkCommitted)
		}
		return
	}
	if e.parkHook != nil {
		e.parkHook(ParkAbandoned)
	}
	// A wake source fired while sources were still arming (or Close marked
	// the task dead). This goroutine still owns the task: finish the job
	// the waker left to it.
	s := t.st.Load()
	if s&stMask == stDead {
		// Close won the transition; it skipped tasks in stParking, so the
		// cleanup and abort are this goroutine's.
		e.stopSources(t)
		t.p.Abort(ErrClosed)
		e.inFlight.Add(-1)
		e.mu.Lock()
		delete(e.parked, t)
		e.mu.Unlock()
		return
	}
	e.enqueue(t)
}

// wake is called by a task's wake sources, each carrying the generation
// of the park that armed it. The winning source moves the task to the run
// queue; losers see the state word already moved on — a different state
// or a newer generation — and do nothing, so a stale timer or a late
// notification can neither double-enqueue nor cut a later park short.
func (e *Engine) wake(t *task, reason WakeReason, gen uint64) {
	next := word(stQueued, reason, gen)
	for {
		s := t.st.Load()
		if s>>genShift != gen {
			return
		}
		switch s & stMask {
		case stParked:
			if t.st.CompareAndSwap(s, next) {
				e.enqueue(t)
				return
			}
		case stParking:
			// Sources are still arming; the parker's final CAS will fail
			// and it enqueues on this goroutine's behalf (it still owns
			// the source fields — this callback must not touch them).
			if t.st.CompareAndSwap(s, next) {
				return
			}
		default:
			return
		}
	}
}

// Close shuts the engine down: queued and parked proposals are aborted
// with ErrClosed, drain goroutines exit, and later Submits abort
// immediately. Proposals being advanced at the moment of Close finish
// their current Advance; if that Advance parks, the park aborts. Close
// blocks until the drains have exited and is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	queued := e.queue
	e.queue = nil
	var parked []*task
	for t := range e.parked {
		parked = append(parked, t)
	}
	e.mu.Unlock()

	// Count the proposals this shutdown aborts before abort() consumes the
	// batch descriptors. Parked tasks are always single proposals.
	aborted := len(parked)
	for _, t := range queued {
		if t.batch != nil {
			aborted += len(t.batch)
		} else {
			aborted++
		}
	}
	for _, t := range queued {
		e.abort(t)
	}
	for _, t := range parked {
		e.reclaim(t)
	}
	e.wg.Wait()
	if o := e.obsv; o != nil {
		o.EngineClosed(aborted)
	}
}

// reclaim aborts one task found in the parked set at Close. The task's
// parker may still be between registering the task and arming its sources
// (stRunning/stParking), or a waker may be moving it to the queue; the
// state word arbitrates:
//
//   - stParked: this goroutine wins the transition, owns the sources
//     (handed off by the parker's final CAS) and aborts here.
//   - stParking: the transition is won here but the parker still owns the
//     arming sources; its failed final CAS makes it clean up and abort.
//   - stRunning: the parker registered the task but has not begun arming;
//     wait for the state to move (bounded by one scheduling of the parker).
//   - stQueued/stDead: a waker or an earlier path got there first; its
//     enqueue lands on the closed engine and aborts.
func (e *Engine) reclaim(t *task) {
	for {
		s := t.st.Load()
		switch s & stMask {
		case stParked:
			if t.st.CompareAndSwap(s, stDead) {
				e.stopSources(t)
				t.p.Abort(ErrClosed)
				e.inFlight.Add(-1)
				e.mu.Lock()
				delete(e.parked, t)
				e.mu.Unlock()
				return
			}
		case stParking:
			if t.st.CompareAndSwap(s, stDead) {
				return // the parker's failed final CAS cleans up and aborts
			}
		case stRunning:
			runtime.Gosched()
		default:
			return
		}
	}
}

// capWheel is the engine's single shared cap timer: every park's deadline
// lives in one min-heap served by one time.Timer, re-armed to the earliest
// entry. One timer callback per expiry batch replaces one per park —
// time.AfterFunc runs each callback in its own goroutine, so per-task
// timers would let a storm of simultaneous cap expiries (hundreds of
// proposals parked together under one schedule) momentarily spawn a
// goroutine per parked proposal, exactly the cost the engine exists to
// avoid. Entries are removed eagerly when another wake source wins, so a
// long-capped park revoked early holds no memory until its deadline.
type capWheel struct {
	e *Engine

	mu      sync.Mutex
	entries capHeap
	timer   *time.Timer
}

// capEntry is one parked task's deadline; idx is its heap position, -1
// once popped or removed; gen is the park generation the wake carries.
type capEntry struct {
	when time.Time
	t    *task
	gen  uint64
	idx  int
}

// add schedules a timeout wake for t after d, on park generation gen.
func (w *capWheel) add(t *task, d time.Duration, gen uint64) *capEntry {
	en := &capEntry{when: time.Now().Add(d), t: t, gen: gen}
	w.mu.Lock()
	heap.Push(&w.entries, en)
	if en.idx == 0 {
		w.rearmLocked()
	}
	w.mu.Unlock()
	return en
}

// remove revokes a not-yet-fired entry; firing and removal race only
// through w.mu, and the idx sentinel makes both idempotent.
func (w *capWheel) remove(en *capEntry) {
	w.mu.Lock()
	if en.idx >= 0 {
		heap.Remove(&w.entries, en.idx)
		en.idx = -1
	}
	w.mu.Unlock()
}

// rearmLocked points the timer at the earliest deadline. A stale shorter
// arming is harmless: fire finds nothing due and re-arms.
func (w *capWheel) rearmLocked() {
	if len(w.entries) == 0 {
		return
	}
	d := time.Until(w.entries[0].when)
	if d < 0 {
		d = 0
	}
	if w.timer == nil {
		w.timer = time.AfterFunc(d, w.fire)
	} else {
		w.timer.Reset(d)
	}
}

// fire wakes every due task and re-arms for the next deadline. Wakes run
// outside the wheel lock: a wake enqueues (engine lock) and the resumed
// task's next park calls add (wheel lock) — neither may nest inside it.
func (w *capWheel) fire() {
	var due []*capEntry
	w.mu.Lock()
	now := time.Now()
	for len(w.entries) > 0 && !w.entries[0].when.After(now) {
		en := heap.Pop(&w.entries).(*capEntry)
		en.idx = -1
		due = append(due, en)
	}
	w.rearmLocked()
	w.mu.Unlock()
	for _, en := range due {
		w.e.wake(en.t, WakeTimeout, en.gen)
	}
}

// capHeap implements container/heap ordered by deadline, maintaining each
// entry's idx for O(log n) removal.
type capHeap []*capEntry

func (h capHeap) Len() int           { return len(h) }
func (h capHeap) Less(i, j int) bool { return h[i].when.Before(h[j].when) }
func (h capHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *capHeap) Push(x any)        { en := x.(*capEntry); en.idx = len(*h); *h = append(*h, en) }
func (h *capHeap) Pop() any {
	old := *h
	n := len(old)
	en := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return en
}
