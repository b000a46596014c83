package setagreement

import (
	"fmt"
	"time"

	"setagreement/internal/register"
	"setagreement/internal/shmem"
	"setagreement/internal/snapshot"
	"setagreement/obs"
)

// MemoryBackend selects the native shared-memory substrate the object's
// registers and snapshots live in. Every snapshot runtime (SnapshotImpl)
// runs on every backend; the backend only changes how each atomic step is
// synchronized between goroutines.
type MemoryBackend int

const (
	// BackendLockFree (default) keeps each register in its own atomic
	// cell and each snapshot object behind a single atomic pointer to an
	// immutable version: reads, writes and scans are wait-free and never
	// block, updates install a new version by compare-and-swap and are
	// lock-free (a failed swap means a concurrent update completed).
	BackendLockFree MemoryBackend = iota
	// BackendLocked guards every operation of every goroutine with one
	// mutex — the original runtime, kept for comparison and as the
	// reference implementation.
	BackendLocked
)

// String names the backend.
func (b MemoryBackend) String() string {
	switch b {
	case BackendLockFree, BackendLocked:
		return b.internal().Name()
	default:
		return fmt.Sprintf("memorybackend(%d)", int(b))
	}
}

func (b MemoryBackend) internal() shmem.Backend {
	switch b {
	case BackendLocked:
		return register.LockedBackend
	default:
		return register.LockFreeBackend
	}
}

// SnapshotImpl selects how the object's snapshot is realized over registers.
type SnapshotImpl int

const (
	// SnapshotAtomic uses a mutex-linearized snapshot object (default):
	// one lock acquisition per operation.
	SnapshotAtomic SnapshotImpl = iota
	// SnapshotWaitFree uses the wait-free register construction with
	// embedded scans (r registers for r components).
	SnapshotWaitFree
	// SnapshotSingleWriter uses the single-writer emulation (n registers
	// regardless of component count) — the min(·, n) branch of the
	// paper's Theorems 7/8.
	SnapshotSingleWriter
	// SnapshotDoubleCollect uses the non-blocking double-collect
	// construction, the only register construction here that supports
	// anonymous processes.
	SnapshotDoubleCollect
)

// String names the runtime.
func (s SnapshotImpl) String() string { return s.internal().String() }

func (s SnapshotImpl) internal() snapshot.Impl {
	switch s {
	case SnapshotWaitFree:
		return snapshot.ImplMW
	case SnapshotSingleWriter:
		return snapshot.ImplSWEmulation
	case SnapshotDoubleCollect:
		return snapshot.ImplDoubleCollect
	default:
		return snapshot.ImplAtomic
	}
}

// Default wait schedule an engine-driven Propose runs under when no
// WithBackoff is configured: yield every 64 operations, cap parks at 100µs
// doubling to 10ms. The caps only bound how long a proposal can stay parked
// when no wakeup comes (contention vanished); under contention the notifier
// wakes it as soon as the memory changes.
const (
	defaultWaitMin    = 100 * time.Microsecond
	defaultWaitMax    = 10 * time.Millisecond
	defaultWaitWindow = 64
)

// Option configures an agreement object.
type Option interface {
	apply(*options) error
}

type options struct {
	m             int
	impl          SnapshotImpl
	backend       MemoryBackend
	backoffSet    bool
	backoffMin    time.Duration
	backoffMax    time.Duration
	backoffStep   int
	engineWorkers int // 0 = GOMAXPROCS, resolved by engine.New
	codec         any // Codec[T] supplied by WithCodec; resolved per entry point
	obs           *obs.Collector
}

func buildOptions(opts []Option) (options, error) {
	o := options{m: 1}
	for _, op := range opts {
		if err := op.apply(&o); err != nil {
			return options{}, err
		}
	}
	// Backoff arguments are validated here, once per object build, so every
	// entry point (including the arena's object mold) rejects a bad schedule
	// at construction instead of silently misbehaving at Propose time.
	if o.backoffSet {
		switch {
		case o.backoffMin <= 0:
			return options{}, fmt.Errorf("setagreement: backoff min must be positive, got %v", o.backoffMin)
		case o.backoffMax < o.backoffMin:
			return options{}, fmt.Errorf("setagreement: backoff max %v below min %v", o.backoffMax, o.backoffMin)
		case o.backoffStep < 1:
			return options{}, fmt.Errorf("setagreement: backoff window must be ≥ 1, got %d", o.backoffStep)
		}
	}
	return o, nil
}

type optionFunc func(*options) error

func (f optionFunc) apply(o *options) error { return f(o) }

// WithObstruction sets m, the maximum number of concurrently executing
// processes under which every Propose is guaranteed to terminate. Larger m
// gives a stronger progress guarantee but requires m ≤ k and costs
// registers: min(n+2m−k, n). The default is 1 (obstruction-freedom).
func WithObstruction(m int) Option {
	return optionFunc(func(o *options) error {
		if m < 1 {
			return fmt.Errorf("setagreement: obstruction degree must be ≥ 1, got %d", m)
		}
		o.m = m
		return nil
	})
}

// WithSnapshot selects the snapshot runtime.
func WithSnapshot(impl SnapshotImpl) Option {
	return optionFunc(func(o *options) error {
		switch impl {
		case SnapshotAtomic, SnapshotWaitFree, SnapshotSingleWriter, SnapshotDoubleCollect:
			o.impl = impl
			return nil
		default:
			return fmt.Errorf("setagreement: unknown snapshot runtime %d", impl)
		}
	})
}

// WithMemoryBackend selects the native shared-memory backend. The default
// is BackendLockFree; BackendLocked restores the mutex-serialized substrate.
func WithMemoryBackend(b MemoryBackend) Option {
	return optionFunc(func(o *options) error {
		switch b {
		case BackendLockFree, BackendLocked:
			o.backend = b
			return nil
		default:
			return fmt.Errorf("setagreement: unknown memory backend %d", b)
		}
	})
}

// WithCodec fixes the value codec a generic entry point uses instead of
// the default (IdentityCodec for int, NewInterningCodec for every other
// domain). The codec's domain must match the entry point's type parameter,
// e.g. New[color](..., WithCodec(myColorCodec)); a mismatch fails at
// construction. Supplying a codec lets callers use stable application
// codes (dense enums, pre-assigned ids) instead of first-seen interning.
func WithCodec[T comparable](c Codec[T]) Option {
	return optionFunc(func(o *options) error {
		if c == nil {
			return fmt.Errorf("setagreement: WithCodec needs a non-nil codec")
		}
		o.codec = c
		return nil
	})
}

// WithBackoff schedules the yield points of a Propose: every `window`
// shared-memory operations without deciding, a process that has seen
// another process write since its last yield point waits for the memory
// to change, for at most a cap doubling from min to max. Waiting processes
// yield the solo window another process needs — how obstruction-free
// algorithms are made to terminate in practice (see the paper's
// introduction) — and the wait ends as soon as the memory changes. A solo
// process skips its yield points. Waits honor the Propose context:
// cancellation interrupts them promptly. Without WithBackoff a sync Propose
// never yields. Arguments are validated at construction: min must be
// positive, max ≥ min, window ≥ 1.
func WithBackoff(min, max time.Duration, window int) Option {
	return optionFunc(func(o *options) error {
		o.backoffSet = true
		o.backoffMin = min
		o.backoffMax = max
		o.backoffStep = window
		return nil
	})
}

// WithEngine sets the worker count of the object's async proposal engine —
// the concurrency ceiling for ProposeAsync proposals advancing at once.
// The engine itself is created lazily at the first ProposeAsync (purely
// synchronous users never pay for it), its drain goroutines are transient
// (zero goroutines while every proposal is parked or the engine is idle),
// and on an arena the engine is one, shared by all objects across all
// shards (set it through WithObjectOptions). The default (0) uses
// GOMAXPROCS workers.
func WithEngine(workers int) Option {
	return optionFunc(func(o *options) error {
		if workers < 0 {
			return fmt.Errorf("setagreement: engine worker count must be ≥ 0, got %d", workers)
		}
		o.engineWorkers = workers
		return nil
	})
}

// WithObservability attaches an obs.Collector to the object (or, through
// WithObjectOptions, to every object of an arena): the collector's
// per-stage latency histograms, lifecycle counters and recent-event ring
// then record every proposal's lifecycle — submit, first step, each
// park/wake pair with its wake reason and run-queue position, the
// decision and its completion-queue delivery — plus the synchronous
// path's waits and solo-run skips. Read it with Collector.Snapshot (or
// Arena.Observe), serve it live with obs/obshttp, and see the `obs`
// sabench table for the per-stage breakdown under load.
//
// Observability is off by default and its disabled path is free: without
// a collector the instrumented paths make nil-receiver no-op calls that
// allocate nothing (see TestObservabilityDisabledOverhead). One collector
// may serve any number of objects; events are keyed by (object key,
// process id).
func WithObservability(c *obs.Collector) Option {
	return optionFunc(func(o *options) error {
		o.obs = c
		return nil
	})
}

// newWait assembles the per-handle wait plan, or nil when the handle should
// never yield (no WithBackoff configured — a pure spin, the
// zero-configuration behavior).
func (o options) newWait() *waitPlan {
	if !o.backoffSet {
		return nil
	}
	return &waitPlan{backoff: backoffState{min: o.backoffMin, max: o.backoffMax, window: o.backoffStep}}
}

// backoffState implements the per-Propose yield schedule between
// shared-memory operations. step reports the cap of the wait due before the
// next operation (0 = no yield point); the wait itself lives in guardMem,
// which knows the Propose context.
type backoffState struct {
	min, max time.Duration
	window   int
	ops      int
	cur      time.Duration
}

func (b *backoffState) step() time.Duration {
	b.ops++
	if b.ops%b.window != 0 {
		return 0
	}
	if b.cur == 0 {
		b.cur = b.min
	} else if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	return b.cur
}

// reset rewinds the backoff for the next Propose, matching the fresh state
// each Propose used to allocate.
func (b *backoffState) reset() {
	b.ops = 0
	b.cur = 0
}
