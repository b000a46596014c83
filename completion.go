package setagreement

import (
	"context"
	"errors"
	"sync"

	"setagreement/internal/engine"
)

// ErrCompletionQueueClosed is returned by CompletionQueue.Next once the
// queue is closed and drained, and by Register on a closed queue.
var ErrCompletionQueueClosed = errors.New("setagreement: completion queue closed")

// ErrAlreadyRegistered is returned by Register for a future that is already
// registered with a completion queue: a future delivers to at most one.
var ErrAlreadyRegistered = errors.New("setagreement: future already registered with a completion queue")

// Completion pairs a resolved future with the tag it was registered under.
// The future is resolved by construction, so Value never blocks.
type Completion[T comparable] struct {
	Future *Future[T]
	Tag    int
}

// Value returns the completion's outcome without blocking.
func (c Completion[T]) Value() (T, error) { return c.Future.Value() }

// cqReg is one future's registration: the queue and the caller's tag,
// published together through one atomic pointer so the resolving goroutine
// never reads a half-installed registration.
type cqReg[T comparable] struct {
	q   *CompletionQueue[T]
	tag int
}

// CompletionQueue delivers resolved futures to one collector in completion
// order — the io_uring-style counterpart of batch submission. Register
// attaches any number of in-flight futures (at most one queue per future);
// each is enqueued at the moment it resolves, whatever resolves it: a
// decision, a lifecycle error, context cancellation, arena eviction or
// engine shutdown. One collector goroutine calling Next drains N in-flight
// proposals with no head-of-line blocking and no per-future select.
//
// A CompletionQueue is safe for concurrent use: any number of goroutines
// may Register and Next concurrently (completions are handed out exactly
// once each). The queue is unbounded — it holds at most the futures
// registered and not yet collected — so delivery never blocks the engine's
// resolution path.
type CompletionQueue[T comparable] struct {
	mu      sync.Mutex
	buf     []Completion[T]
	head    int
	closed  bool
	pending int
	// eng is the engine of the latest registered future that reached one:
	// the engine a collector blocked in Next helps.
	eng *engine.Engine

	sig      chan struct{} // capacity 1: "buf may be non-empty"
	closedCh chan struct{} // closed by Close, wakes every blocked Next
}

// NewCompletionQueue builds an empty completion queue.
func NewCompletionQueue[T comparable]() *CompletionQueue[T] {
	return &CompletionQueue[T]{
		sig:      make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
}

// Register attaches a future to the queue: when the future resolves (or at
// Register time, if it already has), a Completion carrying tag is enqueued
// for Next. A future registers with at most one queue, ever; a second
// registration fails with ErrAlreadyRegistered. Registering on a closed
// queue fails with ErrCompletionQueueClosed.
func (q *CompletionQueue[T]) Register(f *Future[T], tag int) error {
	return q.register(f, &cqReg[T]{q: q, tag: tag})
}

func (q *CompletionQueue[T]) register(f *Future[T], r *cqReg[T]) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrCompletionQueueClosed
	}
	q.pending++
	if f.eng != nil {
		q.eng = f.eng
	}
	q.mu.Unlock()
	if !f.reg.CompareAndSwap(nil, r) {
		q.mu.Lock()
		q.pending--
		q.mu.Unlock()
		return ErrAlreadyRegistered
	}
	// The future may have resolved before the registration landed; the
	// delivered flag makes this and the resolver's own deliver exactly-once.
	if f.Resolved() {
		f.deliver()
	}
	return nil
}

// push enqueues one resolved future. Never blocks (the engine's resolution
// path runs through here). On a closed queue the completion is dropped —
// the future itself stays readable forever; only its queue delivery is
// forfeit.
func (q *CompletionQueue[T]) push(c Completion[T]) {
	q.mu.Lock()
	if q.closed {
		q.pending--
		q.mu.Unlock()
		return
	}
	q.buf = append(q.buf, c)
	q.mu.Unlock()
	select {
	case q.sig <- struct{}{}:
	default:
	}
}

// Next returns the earliest not-yet-collected completion, blocking until
// one resolves, ctx ends (ctx.Err()), or the queue is closed and drained
// (ErrCompletionQueueClosed). A nil ctx waits indefinitely. Completions
// already enqueued when Close is called are still returned, so a collector
// loop naturally drains the tail before seeing ErrCompletionQueueClosed.
//
// While it waits, Next runs the queued proposals of the engine its latest
// registered future was submitted to, one at a time on the calling
// goroutine, and blocks only when that engine's run queue is empty: the
// collector lends the engine its processor rather than wait for a drain
// goroutine to be scheduled. ctx is checked between proposals; a proposal
// Next is running is not interrupted by ctx.
func (q *CompletionQueue[T]) Next(ctx context.Context) (Completion[T], error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for {
		q.mu.Lock()
		if q.head < len(q.buf) {
			c := q.buf[q.head]
			q.buf[q.head] = Completion[T]{} // release the future for GC
			q.head++
			if q.head == len(q.buf) {
				q.buf = q.buf[:0]
				q.head = 0
			}
			q.pending--
			q.mu.Unlock()
			return c, nil
		}
		closed, eng := q.closed, q.eng
		q.mu.Unlock()
		if closed {
			return Completion[T]{}, ErrCompletionQueueClosed
		}
		if eng != nil {
			select {
			case <-ctxDone:
				return Completion[T]{}, ctx.Err()
			default:
			}
			if eng.Help() {
				continue
			}
		}
		select {
		case <-ctxDone:
			return Completion[T]{}, ctx.Err()
		case <-q.sig:
		case <-q.closedCh:
		}
	}
}

// Pending returns the number of registered futures whose completions have
// not yet been returned by Next — in-flight plus buffered. It is a gauge
// for flow control (cap how much a submitter keeps outstanding), meaningful
// while the queue is open.
func (q *CompletionQueue[T]) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// Close closes the queue: blocked Next calls wake, buffered completions
// remain collectable, and once they are drained every Next fails with
// ErrCompletionQueueClosed, as does every later Register. Futures still in
// flight stay valid — they resolve as usual and are read directly — but
// their queue delivery is dropped. Close is idempotent and safe to call
// with registrations in flight.
func (q *CompletionQueue[T]) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.closedCh)
}
