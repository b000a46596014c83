package setagreement

import (
	"sync"
	"sync/atomic"

	"setagreement/internal/engine"
	"setagreement/obs"
)

// Future is the pending result of a ProposeAsync: it resolves exactly once
// — with the decided value, or with the error the equivalent synchronous
// Propose would have returned (lifecycle errors like ErrInUse, context
// cancellation, ErrEngineClosed at engine shutdown). All methods are safe
// for concurrent use from any number of goroutines, and all reads are
// idempotent: every Value call returns the same pair forever.
//
// Done is the select-friendly face for callers multiplexing a handful of
// futures; Value and Err are the blocking conveniences. For many in-flight
// futures, register them with a CompletionQueue and drain completions in
// the order they resolve instead of selecting per future.
type Future[T comparable] struct {
	// state is 0 while pending, 1 once resolved; the atomic store in
	// resolve publishes val and err to every reader that loads 1.
	state atomic.Uint32
	mu    sync.Mutex // guards the lazy done channel
	done  chan struct{}
	val   T
	err   error

	// Completion-queue delivery: reg is CAS-installed by Register (at most
	// one queue per future, queue and tag published as one pointer);
	// delivered makes the handoff exactly-once whichever side — resolve or
	// a Register that arrives after resolution — performs it.
	reg       atomic.Pointer[cqReg[T]]
	delivered atomic.Bool

	// span is the proposal's lifecycle trace (nil when observability is
	// disabled). Written by the submit path before resolve can run, read
	// by deliver — the exactly-once delivery CAS sequences the two.
	span *obs.Span

	// eng is the engine the proposal was submitted to, nil for a future
	// resolved before reaching one. Written by the submit path before the
	// future is returned; a CompletionQueue the future registers with helps
	// this engine while its collector waits.
	eng *engine.Engine
}

func newFuture[T comparable]() *Future[T] {
	return &Future[T]{}
}

// closedChan is the Done channel of every already-resolved future: the
// channel is only ever read from, so all resolved futures can share one.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// resolve delivers the outcome. Called exactly once, by the async driver
// (or by the submit path itself for immediate lifecycle failures); the
// state store publishes val and err to every reader, and the future is
// handed to its completion queue, if one is registered.
func (f *Future[T]) resolve(v T, err error) {
	f.val, f.err = v, err
	f.mu.Lock()
	f.state.Store(1)
	done := f.done
	f.mu.Unlock()
	if done != nil {
		close(done)
	}
	f.deliver()
}

// deliver hands the resolved future to its registered completion queue,
// exactly once. Callable only when the future is resolved; a future with no
// queue is untouched (Register delivers later if one arrives).
func (f *Future[T]) deliver() {
	r := f.reg.Load()
	if r == nil || !f.delivered.CompareAndSwap(false, true) {
		return
	}
	// The delivery event fires exactly once, with the CAS, before the push
	// makes the completion collectable.
	f.span.Delivered()
	r.q.push(Completion[T]{Future: f, Tag: r.tag})
}

// resolved builds an already-resolved future, for submissions that fail
// before reaching the engine.
func resolvedFuture[T comparable](v T, err error) *Future[T] {
	f := newFuture[T]()
	f.resolve(v, err)
	return f
}

// Done returns a channel that is closed when the proposal has resolved.
// After it is closed, Value and Err return without blocking.
func (f *Future[T]) Done() <-chan struct{} {
	if f.state.Load() == 1 {
		return closedChan
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.state.Load() == 1 {
		return closedChan
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	return f.done
}

// Value blocks until the proposal resolves and returns its outcome. It may
// be called any number of times, from any goroutine; every call returns
// the same result.
func (f *Future[T]) Value() (T, error) {
	if f.state.Load() != 1 {
		<-f.Done()
	}
	return f.val, f.err
}

// Err blocks until the proposal resolves and returns its error, nil on
// success. Like Value, it is idempotent.
func (f *Future[T]) Err() error {
	_, err := f.Value()
	return err
}

// Resolved reports, without blocking, whether the proposal has resolved.
func (f *Future[T]) Resolved() bool { return f.state.Load() == 1 }
