package setagreement

import (
	"errors"
	"fmt"
	"sync/atomic"

	"setagreement/internal/core"
	"setagreement/internal/shmem"
	"setagreement/internal/sim"
	"setagreement/internal/snapshot"
)

// Errors returned by handle claiming and Propose.
var (
	// ErrAlreadyProposed is returned by Propose on a one-shot handle that
	// has already decided.
	ErrAlreadyProposed = errors.New("setagreement: process already proposed")
	// ErrBadID is returned by Proc when the process identifier is outside
	// [0, n).
	ErrBadID = errors.New("setagreement: process id out of range")
	// ErrPoisoned is returned when a previous Propose on this handle was
	// cancelled mid-operation, leaving its half-written state behind.
	ErrPoisoned = errors.New("setagreement: process state unusable after cancelled Propose")
	// ErrTooManySessions is returned by Anonymous.Session beyond n.
	ErrTooManySessions = errors.New("setagreement: more sessions than processes")
	// ErrInUse is returned when a process id is claimed twice, or when two
	// goroutines Propose concurrently on one handle.
	ErrInUse = errors.New("setagreement: process already in use")
	// ErrReleased is returned by Propose on a handle whose owner has called
	// Release: the process has permanently left the object.
	ErrReleased = errors.New("setagreement: handle released")
	// ErrEvicted is returned by an arena object that has been evicted; fetch
	// the current object for the key with Arena.Object again.
	ErrEvicted = errors.New("setagreement: object evicted from arena")
)

// object is the shared core of the three public agreement types: the
// algorithm, its runtime over the configured backend, and the value codec
// every handle of the object shares.
type object[T comparable] struct {
	alg   core.Algorithm
	rt    *runtime
	codec Codec[T]
}

// Registers returns the number of registers the object occupies — the
// paper's min(n+2m−k, n) for identified objects, (m+1)(n−k)+m²+1 (one
// fewer one-shot) for anonymous ones.
func (o *object[T]) Registers() int { return o.alg.Registers() }

// handle claims one process: it creates the algorithm's persistent local
// state and resolves the process's view of shared memory once, so Propose
// never pays for either again.
func (o *object[T]) handle(id int, oneShot bool) *Handle[T] {
	h := &Handle[T]{
		rt:      o.rt,
		codec:   o.codec,
		proc:    o.alg.NewProcess(id),
		id:      id,
		oneShot: oneShot,
	}
	// Every algorithm in this module exposes its Propose as a resumable
	// machine (core.Resumable) — Propose itself is the synchronous driver
	// over it, ProposeAsync the engine-driven one.
	res, ok := h.proc.(core.Resumable)
	if !ok {
		panic("setagreement: algorithm process is not core.Resumable")
	}
	h.res = res
	h.guard.inner = o.rt.wrap(id)
	h.guard.wait = o.rt.opts.newWait()
	h.guard.stats = &h.stats
	// Observability wiring: the collector (nil when disabled) plus the
	// event key — process id here, object key filled in by the arena.
	h.guard.rec = o.rt.opts.obs
	h.guard.obsProc = int32(id)
	if nt, ok := h.guard.inner.(shmem.Notifier); ok {
		h.guard.notifier = nt
		// Solo detection needs the notifier's version to tick exactly once
		// per logical mutation this guard issues; that holds only on the
		// atomic snapshot runtime, where guard operations are backend
		// operations 1:1. Register-implemented snapshots fan one logical
		// Update into several physical writes (and mw-waitfree scans write
		// helping records), so there every yield is treated as contended —
		// the capped wait still preserves obstruction-freedom.
		h.guard.notifyExact = o.rt.opts.impl == SnapshotAtomic
	}
	return h
}

// build assembles the shared object core for one entry point.
func build[T comparable](opts []Option, anonymous bool, mk func(o options) (core.Algorithm, error)) (object[T], error) {
	o, err := buildOptions(opts)
	if err != nil {
		return object[T]{}, err
	}
	codec, err := resolveCodec[T](o.codec)
	if err != nil {
		return object[T]{}, err
	}
	alg, err := mk(o)
	if err != nil {
		return object[T]{}, err
	}
	rt, err := newRuntime(alg, o, anonymous)
	if err != nil {
		return object[T]{}, err
	}
	return object[T]{alg: alg, rt: rt, codec: codec}, nil
}

// claims tracks which process ids of an identified object are claimed.
type claims struct {
	slots []atomic.Bool
}

func (c *claims) claim(id int) error {
	if id < 0 || id >= len(c.slots) {
		return fmt.Errorf("%w: %d of %d", ErrBadID, id, len(c.slots))
	}
	if !c.slots[id].CompareAndSwap(false, true) {
		return fmt.Errorf("%w: process %d already claimed", ErrInUse, id)
	}
	return nil
}

// Agreement is a one-shot m-obstruction-free k-set agreement object for n
// identified processes over min(n+2m−k, n) registers, with values drawn
// from T. Goroutines participate by claiming distinct process handles.
type Agreement[T comparable] struct {
	object[T]
	claims claims
}

// New builds a one-shot agreement object for n processes and at most k
// distinct decisions over domain T. By default termination is guaranteed
// under solo execution (m = 1); raise m with WithObstruction.
func New[T comparable](n, k int, opts ...Option) (*Agreement[T], error) {
	obj, err := build[T](opts, false, func(o options) (core.Algorithm, error) {
		return core.NewOneShot(core.Params{N: n, M: o.m, K: k})
	})
	if err != nil {
		return nil, err
	}
	return &Agreement[T]{object: obj, claims: claims{slots: make([]atomic.Bool, n)}}, nil
}

// Proc claims process id (0 ≤ id < n) and returns its handle. Each id may
// be claimed exactly once; on a one-shot object the handle supports a
// single Propose.
func (a *Agreement[T]) Proc(id int) (*Handle[T], error) {
	if err := a.claims.claim(id); err != nil {
		return nil, err
	}
	return a.handle(id, true), nil
}

// Repeated is an m-obstruction-free repeated k-set agreement object: an
// unbounded sequence of independent k-set agreement instances accessed in
// order, over the same min(n+2m−k, n) registers.
type Repeated[T comparable] struct {
	object[T]
	claims claims
}

// NewRepeated builds a repeated agreement object for n processes and at
// most k distinct decisions per instance over domain T.
func NewRepeated[T comparable](n, k int, opts ...Option) (*Repeated[T], error) {
	obj, err := build[T](opts, false, func(o options) (core.Algorithm, error) {
		return core.NewRepeated(core.Params{N: n, M: o.m, K: k})
	})
	if err != nil {
		return nil, err
	}
	return &Repeated[T]{object: obj, claims: claims{slots: make([]atomic.Bool, n)}}, nil
}

// Proc claims process id (0 ≤ id < n) and returns its handle. Each id may
// be claimed exactly once; the handle's first Propose accesses instance 1,
// the second instance 2, and so on.
func (r *Repeated[T]) Proc(id int) (*Handle[T], error) {
	if err := r.claims.claim(id); err != nil {
		return nil, err
	}
	return r.handle(id, false), nil
}

// Anonymous is the anonymous k-set agreement object of Figure 5:
// participants carry no identifiers and are all programmed identically. The
// repeated form occupies (m+1)(n−k)+m²+1 registers; the one-shot form saves
// the helper register H.
type Anonymous[T comparable] struct {
	object[T]
	oneShot  bool
	sessions atomic.Int32
}

// NewAnonymous builds an anonymous repeated agreement object for up to n
// concurrent participants. Anonymous objects support only the atomic and
// double-collect snapshot runtimes (the others need process identifiers).
func NewAnonymous[T comparable](n, k int, opts ...Option) (*Anonymous[T], error) {
	return newAnonymous[T](n, k, false, opts)
}

// NewAnonymousOneShot builds the one-shot variant: each session proposes at
// most once, and the object occupies one register fewer ((m+1)(n−k)+m², the
// anonymous one-shot cell of the paper's Figure 1).
func NewAnonymousOneShot[T comparable](n, k int, opts ...Option) (*Anonymous[T], error) {
	return newAnonymous[T](n, k, true, opts)
}

func newAnonymous[T comparable](n, k int, oneShot bool, opts []Option) (*Anonymous[T], error) {
	obj, err := build[T](opts, true, func(o options) (core.Algorithm, error) {
		if oneShot {
			return core.NewAnonOneShot(core.Params{N: n, M: o.m, K: k})
		}
		return core.NewAnonRepeated(core.Params{N: n, M: o.m, K: k})
	})
	if err != nil {
		return nil, err
	}
	return &Anonymous[T]{object: obj, oneShot: oneShot}, nil
}

// Session claims a handle for a new anonymous participant. At most n
// sessions may be created; like every handle, a session is one process and
// supports one Propose at a time.
func (a *Anonymous[T]) Session() (*Handle[T], error) {
	n := int32(a.alg.Params().N)
	for {
		cur := a.sessions.Load()
		if cur >= n {
			return nil, fmt.Errorf("%w: n=%d", ErrTooManySessions, n)
		}
		if a.sessions.CompareAndSwap(cur, cur+1) {
			return a.handle(sim.Anonymous, a.oneShot), nil
		}
	}
}

// runtime owns the native shared memory of one agreement object: mem is
// the backend memory allocated by Materialize (the anchor for object-wide
// instrumentation), wrap yields one process's view over it — resolved
// once per handle, at claim time — and eng is the object's async proposal
// engine (lazily created; shared arena-wide when the arena built the
// runtime). The memory comes from the configured backend
// (WithMemoryBackend); the runtime itself is backend-agnostic.
type runtime struct {
	mem  shmem.Mem
	wrap func(id int) shmem.Mem
	opts options
	eng  *engineRef
}

func newRuntime(alg core.Algorithm, o options, anonymous bool) (*runtime, error) {
	impl := o.impl.internal()
	if anonymous && (impl == snapshot.ImplMW || impl == snapshot.ImplSWEmulation) {
		return nil, fmt.Errorf("setagreement: snapshot runtime %v needs process identifiers; anonymous objects support SnapshotAtomic or SnapshotDoubleCollect", o.impl)
	}
	mem, wrap, err := snapshot.Materialize(alg.Spec(), impl, alg.Params().N, o.backend.internal())
	if err != nil {
		return nil, err
	}
	return &runtime{mem: mem, wrap: wrap, opts: o, eng: &engineRef{workers: o.engineWorkers, obsv: observerFor(o.obs)}}, nil
}
