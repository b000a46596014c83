package register

import (
	"context"
	"sync/atomic"
	"unsafe"

	"setagreement/internal/shmem"
)

// LockFree is an in-process shared memory with no locks. Plain registers
// are per-register atomic pointer cells (a Read or Write is one atomic load
// or store, so operations on distinct registers never contend); each
// snapshot object is a single atomic pointer to an immutable version — a
// component-value slice replaced whole by Update via compare-and-swap, and
// returned by Scan directly, copy-free, under shmem.Mem's read-only view
// contract. All processes share one LockFree; its methods are safe for
// concurrent use. Values stored must be treated as immutable by callers,
// as everywhere in this module.
//
// Linearizability by construction: every operation on a snapshot object is
// one atomic action on that object's version pointer. Scan linearizes at
// its single load — the loaded version is immutable, so the view is a
// consistent cut by definition, and the versions themselves are totally
// ordered, so concurrent scans can never return incomparable views. Update
// linearizes at its successful compare-and-swap, which installs a new
// version derived from the exact version it displaces; a failed CAS means
// a concurrent Update linearized first and the loop retries from its
// version. Update is therefore lock-free (some Update always completes)
// though an individual Update is not wait-free; Read, Write and Scan are
// wait-free.
//
// A per-writer-cell seqlock was rejected here: with concurrent writers a
// version-validated collect can observe one in-flight store while missing
// an earlier one, letting two overlapping scans return crosswise
// incomparable views — and neither version check nor the classic
// pre/post-increment discipline closes that window without serializing
// writers. The single version pointer does, at the cost of one small
// allocation per Update.
//
// The step counter is incremented after an operation's effect, so a caller
// that reads Steps before and after an operation gets a conservative
// real-time interval for it (used by the linearizability test harnesses).
//
// Change notification (shmem.Notifier) is a broadcast generation: every
// Write and every successful Update advance an atomic version and wake any
// blocked waiter by swapping out a broadcast channel (shmem.Broadcast).
// When no one waits, the write path pays two uncontended atomics and the
// wait machinery is never touched.
type LockFree struct {
	regs    []atomic.Pointer[shmem.Value]
	snaps   []lfSnap
	steps   atomic.Int64
	retries atomic.Int64
	notify  shmem.Broadcast
}

// lfSnap is one snapshot object: an atomic pointer to the first element of
// the current immutable r-element version. Pointing at the element rather
// than at a slice header halves Update's allocation cost — the header would
// have to be heap-allocated to be CASed, while unsafe.Slice rebuilds it for
// free (r is fixed for the object's lifetime). The element pointer is a
// sound CAS identity: every version an Update installs comes from its own
// make, and an address can only be reused after its array is unreachable —
// impossible while any loaded pointer to it (including a CAS argument)
// exists. The one version installed more than once is the all-nil initial
// version, made once in NewLockFree and reinstalled by every Reset; Reset
// runs only while no operation is in flight, so no Update can hold a
// pointer loaded before it and mistake the reinstalled version for the one
// it loaded. So ABA cannot occur.
type lfSnap struct {
	r    int
	cur  atomic.Pointer[shmem.Value]
	init *shmem.Value // the initial all-nil version, never written
}

// view returns the version the pointer identifies as a slice.
//
// unsafeptr audit: this is the only unsafe in the package, and it never
// round-trips a pointer through uintptr — unsafe.Slice takes the typed
// element pointer directly, so the GC always sees a live pointer and go
// vet's unsafeptr rules have nothing to flag. What unsafe.Slice cannot
// check is the length: p must point to element 0 of an array of exactly
// s.r elements or the rebuilt header reads out of bounds. checkLen guards
// that invariant at every store into cur.
func (s *lfSnap) view(p *shmem.Value) []shmem.Value { return unsafe.Slice(p, s.r) }

// checkLen admits next as a version of this snapshot object: every pointer
// stored into cur must identify an array of exactly s.r elements (the
// unsafe.Slice length invariant above — r is fixed for the object's
// lifetime, so a shorter array would surface as an out-of-bounds view on a
// later Scan, far from the store that broke the rule). All stores to cur
// go through this check. The read-only side of the same contract — a
// scanned view is never written, only copied into a fresh next buffer of
// the same length — is what the viewmut analyzer enforces (see the
// privateBuffer fixture in internal/analysis/testdata/src/viewmut, which
// mirrors exactly this Update shape).
func (s *lfSnap) checkLen(next []shmem.Value) *shmem.Value {
	if len(next) != s.r {
		panic("register: lock-free version length diverged from snapshot arity (unsafe.Slice invariant)")
	}
	//lint:ignore viewmut next is this snapshot's freshly built version, not a shared view; the element pointer is how a version is installed
	return &next[0]
}

var (
	_ shmem.Mem        = (*LockFree)(nil)
	_ shmem.Stepper    = (*LockFree)(nil)
	_ shmem.CASRetrier = (*LockFree)(nil)
	_ shmem.Resetter   = (*LockFree)(nil)
	_ shmem.Notifier   = (*LockFree)(nil)
)

// boxedInts interns boxed small non-negative ints, the dominant value type
// stored by the agreement algorithms (proposals, rounds, ids). Interning
// lets Write and Update publish a pointer into this immutable table instead
// of heap-allocating a box per store — the single biggest cost of the
// lock-free write path. The table is filled once at init and never written
// afterwards, so sharing its addresses across goroutines is race free.
var boxedInts [8192]shmem.Value

func init() {
	for i := range boxedInts {
		boxedInts[i] = i
	}
}

// boxValue returns a shareable pointer holding v, interned when possible.
// The explicit new on the miss path keeps v itself from escaping, so the
// interned path performs no allocation at all.
func boxValue(v shmem.Value) *shmem.Value {
	if i, ok := v.(int); ok && i >= 0 && i < len(boxedInts) {
		return &boxedInts[i]
	}
	p := new(shmem.Value)
	*p = v
	return p
}

// NewLockFree allocates lock-free native memory for the spec.
func NewLockFree(spec shmem.Spec) (*LockFree, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &LockFree{
		regs:  make([]atomic.Pointer[shmem.Value], spec.Regs),
		snaps: make([]lfSnap, len(spec.Snaps)),
	}
	for i, r := range spec.Snaps {
		s := &m.snaps[i]
		s.r = r
		s.init = s.checkLen(make([]shmem.Value, r))
		s.cur.Store(s.init)
	}
	return m, nil
}

// Read implements shmem.Mem.
func (m *LockFree) Read(reg int) shmem.Value {
	p := m.regs[reg].Load()
	m.steps.Add(1)
	if p == nil {
		return nil
	}
	return *p
}

// Write implements shmem.Mem.
func (m *LockFree) Write(reg int, v shmem.Value) {
	m.regs[reg].Store(boxValue(v))
	m.notify.Publish()
	m.steps.Add(1)
}

// Update implements shmem.Mem.
func (m *LockFree) Update(snap, comp int, v shmem.Value) {
	s := &m.snaps[snap]
	for {
		curp := s.cur.Load()
		next := make([]shmem.Value, s.r)
		copy(next, s.view(curp))
		next[comp] = v
		if s.cur.CompareAndSwap(curp, s.checkLen(next)) {
			m.notify.Publish()
			m.steps.Add(1)
			return
		}
		m.retries.Add(1)
	}
}

// Scan implements shmem.Mem.
func (m *LockFree) Scan(snap int) []shmem.Value {
	s := &m.snaps[snap]
	cur := s.cur.Load()
	m.steps.Add(1)
	return s.view(cur)
}

// Steps implements shmem.Stepper.
func (m *LockFree) Steps() int64 { return m.steps.Load() }

// CASRetries implements shmem.CASRetrier: each count is one Update install
// that lost to a concurrent update and had to rebuild its version.
func (m *LockFree) CASRetries() int64 { return m.retries.Load() }

// Version implements shmem.Notifier.
func (m *LockFree) Version() uint64 { return m.notify.Version() }

// AwaitChange implements shmem.Notifier.
func (m *LockFree) AwaitChange(ctx context.Context, v uint64) (int, error) {
	return m.notify.AwaitChange(ctx, v)
}

// RegisterWake implements shmem.Notifier.
func (m *LockFree) RegisterWake(v uint64, fn func()) (cancel func()) {
	return m.notify.RegisterWake(v, fn)
}

// Waiters implements shmem.Notifier.
func (m *LockFree) Waiters() int64 { return m.notify.Waiters() }

// Reset implements shmem.Resetter: it restores the initial all-nil state and
// zeroes the counters. The caller must guarantee no operation is in flight.
// Previously scanned versions stay immutable — Reset reinstalls each
// snapshot object's initial version, which nothing ever writes, rather
// than mutating the current one — and it allocates nothing.
func (m *LockFree) Reset() {
	for i := range m.regs {
		m.regs[i].Store(nil)
	}
	for i := range m.snaps {
		m.snaps[i].cur.Store(m.snaps[i].init)
	}
	m.steps.Store(0)
	m.retries.Store(0)
	m.notify.Reset()
}
