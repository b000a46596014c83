package arena

import (
	"sync"
	"sync/atomic"

	"setagreement/internal/shmem"
)

// Runtime is one agreement object's materialized shared memory: the backend
// allocation plus the per-process wiring over it, exactly the pair
// snapshot.Materialize returns. All objects of one arena share a single
// shmem.Spec (same n, m, k, snapshot construction and backend), which is
// what makes their runtimes interchangeable and poolable.
type Runtime struct {
	Mem  shmem.Mem
	Wrap func(id int) shmem.Mem
}

// Pool recycles the Runtimes of evicted arena objects. An eviction Puts the
// runtime back; the next object creation Gets it instead of allocating a
// fresh backend memory (registers, snapshot versions, wiring closures — the
// dominant allocation of object churn). Put resets the memory through the
// shmem.Resetter capability; memories that do not support Reset are simply
// dropped to the garbage collector, so the pool is an optimization, never a
// requirement on the backend.
//
// The free list is bounded (Cap, default DefaultCap) so that a burst of
// short-lived objects cannot pin its peak working set of shared memories
// for the arena's lifetime: beyond the cap, Put drops the runtime to the
// garbage collector.
//
// The zero Pool is ready to use and safe for concurrent use.
type Pool struct {
	// Cap bounds the free list; 0 means DefaultCap. Set before first use.
	Cap int

	mu   sync.Mutex
	free []Runtime

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
	drops  atomic.Int64
}

// DefaultCap is the free-list bound of a zero Pool: enough to absorb
// ordinary create/evict churn, small enough that retained memories stay
// negligible next to a live arena's working set.
const DefaultCap = 64

// Get pops a recycled runtime, reporting a miss (allocate fresh) when the
// pool is empty.
func (p *Pool) Get() (Runtime, bool) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		rt := p.free[n-1]
		p.free[n-1] = Runtime{} // do not retain the popped entry
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return rt, true
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return Runtime{}, false
}

// Put resets rt's memory and returns it to the pool. It reports whether the
// runtime was actually retained: false means the memory lacks the Resetter
// capability, or the free list is at capacity, and the runtime was dropped.
// A runtime the full pool drops is not reset first. The caller must
// guarantee the memory is quiescent — no operation in flight and none
// possible afterwards (the arena guarantees this by evicting only objects
// whose handles are all released).
func (p *Pool) Put(rt Runtime) bool {
	r, ok := rt.Mem.(shmem.Resetter)
	if !ok {
		p.drops.Add(1)
		return false
	}
	limit := p.Cap
	if limit <= 0 {
		limit = DefaultCap
	}
	p.mu.Lock()
	full := len(p.free) >= limit
	p.mu.Unlock()
	if full {
		p.drops.Add(1)
		return false
	}
	r.Reset()
	p.mu.Lock()
	// Re-checked: concurrent Puts may have filled the list during Reset.
	if len(p.free) >= limit {
		p.mu.Unlock()
		p.drops.Add(1)
		return false
	}
	p.free = append(p.free, rt)
	p.mu.Unlock()
	p.puts.Add(1)
	return true
}

// PoolStats is a point-in-time view of pool traffic.
type PoolStats struct {
	Hits   int64 // Gets served from the free list
	Misses int64 // Gets that required a fresh allocation
	Puts   int64 // runtimes recycled into the pool
	Drops  int64 // runtimes dropped: no Reset support, or a full free list
}

// Stats returns the pool counters. Safe concurrently with Get/Put.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
		Puts:   p.puts.Load(),
		Drops:  p.drops.Load(),
	}
}

// Len returns the current free-list length.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
