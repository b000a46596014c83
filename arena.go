package setagreement

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	iarena "setagreement/internal/arena"
	"setagreement/internal/core"
	"setagreement/internal/shmem"
	"setagreement/internal/snapshot"
	"setagreement/obs"
)

// Arena is a sharded, multi-tenant registry of named agreement objects: the
// serving layer for workloads that coordinate per key — leases, task queues,
// per-entity locks — rather than through one hand-wired object. Objects are
// created lazily on first access and addressed by name:
//
//	ar, _ := setagreement.NewArena[string](4, 1, setagreement.WithIdleTTL(time.Minute))
//	h, _ := ar.Object("user:42").Proc(id)
//	decided, _ := h.Propose(ctx, "lease-me")
//
// Every object of an arena is built from the same mold — same n, k,
// obstruction degree, snapshot runtime, memory backend and codec (set with
// WithObjectOptions) — which is what makes the arena cheap at scale: the
// name→object map is sharded (power-of-two shard count, one RWMutex per
// shard) so lookups contend only within a shard, and evicted objects'
// shared memories are recycled through a pool instead of reallocated, since
// all runtimes in one arena are interchangeable.
//
// Lifecycle: handles claimed through an arena object support Release; a
// released handle's process has permanently left the object. When every
// claimed handle of an object has been released and the object has been
// idle for the configured TTL (WithIdleTTL), a sweep evicts it — an object
// with any live (claimed, unreleased) handle is never evicted. Sweeps run
// incrementally during Object calls and on demand via Sweep. After
// eviction, a retained *ArenaObject fails with ErrEvicted; fetch the key's
// current object with Object again, which recreates it fresh (new
// generation, all process ids claimable again).
//
// An Arena is safe for concurrent use by any number of goroutines.
type Arena[T comparable] struct {
	shards []arenaShard[T]
	hasher iarena.Hasher
	pool   iarena.Pool
	// eng is the async proposal engine every object of the arena shares —
	// created lazily at the arena's first ProposeAsync, so all stalled
	// async proposals across all shards multiplex over one small worker
	// set (the million-key serving shape).
	eng *engineRef

	n, k    int
	oneShot bool
	ttl     time.Duration
	opts    options
	// codecOpt is the WithCodec option value (or nil). Codecs are resolved
	// per object: with the default interning codec, evicting a key releases
	// its interned values, and no single codec mutex spans the arena. A
	// user-supplied codec is necessarily shared by every object — it must
	// use object-independent (stable) codes, which is what WithCodec codecs
	// are for.
	codecOpt any
	impl     snapshot.Impl

	now func() time.Time // injectable for tests

	created      atomic.Int64
	evicted      atomic.Int64
	handlesTotal atomic.Int64

	retiredMu sync.Mutex
	retired   retiredStats
}

// arenaShard is one shard of the name→object map. The RWMutex design was
// chosen over sync.Map after benchmarking the read-mostly lookup path
// (BenchmarkShardMapReadHit in internal/arena); it also keeps eviction a
// plain delete. nextSweep (unix nanos) rate-limits the incremental sweep:
// the lookup hot path pays one atomic load for it, never a shared write.
type arenaShard[T comparable] struct {
	mu        sync.RWMutex
	objs      map[string]*ArenaObject[T]
	nextSweep atomic.Int64
}

// retiredStats accumulates the instrumentation of evicted objects so
// Arena.Stats never shrinks when objects are reclaimed.
type retiredStats struct {
	proposes   int64
	steps      int64
	scans      int64
	waitNS     int64
	wakeups    int64
	spurious   int64
	memSteps   int64
	casRetries int64
}

// touchGran is the granularity of idle-clock updates on the Object hot
// path: lastUse is only re-stored once it is staler than ttl/touchDiv, so
// a hot key costs one atomic load per lookup, not a contended store. To
// compensate, the sweep deadline is extended by the same slack — an object
// is evicted only after being idle for at least the full TTL, possibly up
// to TTL/touchDiv longer.
const touchDiv = 4

func (ar *Arena[T]) touchGran() int64 { return int64(ar.ttl) / touchDiv }

// ArenaOption configures an Arena.
type ArenaOption interface {
	applyArena(*arenaConfig) error
}

type arenaConfig struct {
	shards  int
	ttl     time.Duration
	oneShot bool
	objOpts []Option
}

type arenaOptionFunc func(*arenaConfig) error

func (f arenaOptionFunc) applyArena(c *arenaConfig) error { return f(c) }

// WithShards fixes the shard count of the name→object map. Counts are
// rounded up to a power of two; the default (0) sizes the map to the
// machine (next power of two ≥ 4×GOMAXPROCS).
func WithShards(n int) ArenaOption {
	return arenaOptionFunc(func(c *arenaConfig) error {
		if n < 0 {
			return fmt.Errorf("setagreement: negative shard count %d", n)
		}
		c.shards = n
		return nil
	})
}

// WithIdleTTL enables idle-object eviction: an object all of whose handles
// have been released becomes evictable once it has not been touched (Object
// lookup, claim or release) for at least d. The default (0) disables
// eviction. Idle tracking is coarse on the lookup hot path — touches are
// recorded at d/4 granularity and the sweep compensates by waiting d plus
// that slack — so eviction happens between d and 1.25d of true idleness,
// and a hot key's lookups stay free of contended writes.
func WithIdleTTL(d time.Duration) ArenaOption {
	return arenaOptionFunc(func(c *arenaConfig) error {
		if d < 0 {
			return fmt.Errorf("setagreement: negative idle TTL %v", d)
		}
		c.ttl = d
		return nil
	})
}

// ArenaOneShot makes the arena serve one-shot agreement objects (New)
// instead of repeated ones (NewRepeated, the default).
func ArenaOneShot() ArenaOption {
	return arenaOptionFunc(func(c *arenaConfig) error {
		c.oneShot = true
		return nil
	})
}

// WithObjectOptions supplies the Options every object of the arena is built
// with — WithMemoryBackend, WithSnapshot, WithObstruction, WithBackoff,
// WithCodec. Threading the backend through here is what keeps all objects
// of an arena in one backend family, so their memories are poolable.
func WithObjectOptions(opts ...Option) ArenaOption {
	return arenaOptionFunc(func(c *arenaConfig) error {
		c.objOpts = append(c.objOpts, opts...)
		return nil
	})
}

// NewArena builds an arena whose objects are agreement objects for n
// processes and at most k distinct decisions over domain T. All object
// configuration is validated here, once — Object itself cannot fail on a
// well-formed arena. The validation run pre-materializes one runtime and
// seeds the recycling pool with it.
func NewArena[T comparable](n, k int, aopts ...ArenaOption) (*Arena[T], error) {
	var cfg arenaConfig
	for _, op := range aopts {
		if err := op.applyArena(&cfg); err != nil {
			return nil, err
		}
	}
	o, err := buildOptions(cfg.objOpts)
	if err != nil {
		return nil, err
	}
	// Validate the codec ↔ domain match once; objects resolve their own
	// codec instances at creation.
	if _, err := resolveCodec[T](o.codec); err != nil {
		return nil, err
	}
	ar := &Arena[T]{
		shards:   make([]arenaShard[T], iarena.Shards(cfg.shards)),
		hasher:   iarena.NewHasher(),
		eng:      &engineRef{workers: o.engineWorkers, obsv: observerFor(o.obs)},
		n:        n,
		k:        k,
		oneShot:  cfg.oneShot,
		ttl:      cfg.ttl,
		opts:     o,
		codecOpt: o.codec,
		impl:     o.impl.internal(),
		now:      time.Now,
	}
	for i := range ar.shards {
		ar.shards[i].objs = make(map[string]*ArenaObject[T])
	}
	// Validate the whole object mold once: algorithm parameters and the
	// snapshot-construction × backend combination. The materialized runtime
	// seeds the pool rather than being thrown away.
	alg, err := ar.newAlgorithm()
	if err != nil {
		return nil, err
	}
	mem, wrap, err := snapshot.Materialize(alg.Spec(), ar.impl, n, o.backend.internal())
	if err != nil {
		return nil, err
	}
	ar.pool.Put(iarena.Runtime{Mem: mem, Wrap: wrap})
	return ar, nil
}

// newAlgorithm builds one object's algorithm from the arena's mold.
func (ar *Arena[T]) newAlgorithm() (core.Algorithm, error) {
	p := core.Params{N: ar.n, M: ar.opts.m, K: ar.k}
	if ar.oneShot {
		return core.NewOneShot(p)
	}
	return core.NewRepeated(p)
}

// Shards returns the shard count of the name→object map.
func (ar *Arena[T]) Shards() int { return len(ar.shards) }

// Len returns the number of live named objects.
func (ar *Arena[T]) Len() int {
	total := 0
	for i := range ar.shards {
		sh := &ar.shards[i]
		sh.mu.RLock()
		total += len(sh.objs)
		sh.mu.RUnlock()
	}
	return total
}

// Object returns the agreement object named key, creating it on first
// access. Concurrent calls with one key observe the same object. The
// returned object stays valid until evicted; afterwards its methods fail
// with ErrEvicted and Object returns the key's next generation. Object
// never returns an already-evicted object, but a caller that lets an
// object sit idle past the TTL before claiming can still lose the race
// with a sweep — treat ErrEvicted from Proc as "fetch the object again".
func (ar *Arena[T]) Object(key string) *ArenaObject[T] {
	sh := &ar.shards[ar.hasher.Shard(key, len(ar.shards))]
	for {
		sh.mu.RLock()
		ao := sh.objs[key]
		sh.mu.RUnlock()
		if ao == nil {
			ao = ar.create(sh, key)
		}
		if ar.ttl > 0 {
			now := ar.now().UnixNano()
			// Coarse touch: re-store the idle clock only once it is
			// staler than the granularity, so a hot key costs one atomic
			// load per lookup instead of a contended store.
			if now-ao.lastUse.Load() > ar.touchGran() {
				ao.lastUse.Store(now)
			}
			// Incremental sweep, rate-limited per shard: at most one
			// sweep per granularity window, won by a single CAS.
			if next := sh.nextSweep.Load(); now > next &&
				sh.nextSweep.CompareAndSwap(next, now+ar.touchGran()) {
				ar.sweepShard(sh, now)
			}
		}
		// A concurrent sweep (or our own, for a different key's idle
		// object — never this one, which we just touched) may have evicted
		// ao between the lookup and here; serve the next generation
		// instead of a dead object. A dead object can sit in the map for
		// the moment between being marked dead and being deleted; yield so
		// its evictor can finish.
		if !ao.Evicted() {
			return ao
		}
		goruntime.Gosched()
	}
}

// create installs a fresh object for key under the shard write lock,
// yielding to a concurrent creator that got there first.
func (ar *Arena[T]) create(sh *arenaShard[T], key string) *ArenaObject[T] {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ao := sh.objs[key]; ao != nil {
		return ao
	}
	ao := &ArenaObject[T]{key: key, ar: ar}
	alg, err := ar.newAlgorithm()
	if err != nil {
		// Unreachable on a NewArena-validated mold; surfaced via Proc.
		ao.err = err
		return ao
	}
	codec, err := resolveCodec[T](ar.codecOpt)
	if err != nil {
		ao.err = err
		return ao
	}
	rt, ok := ar.pool.Get()
	if !ok {
		m, wrap, err := snapshot.Materialize(alg.Spec(), ar.impl, ar.n, ar.opts.backend.internal())
		if err != nil {
			ao.err = err
			return ao
		}
		rt = iarena.Runtime{Mem: m, Wrap: wrap}
	}
	ao.obj = object[T]{
		alg:   alg,
		rt:    &runtime{mem: rt.Mem, wrap: rt.Wrap, opts: ar.opts, eng: ar.eng},
		codec: codec,
	}
	ao.handles = make([]*Handle[T], ar.n)
	ao.lastUse.Store(ar.now().UnixNano())
	sh.objs[key] = ao
	ar.created.Add(1)
	return ao
}

// Sweep evicts every evictable object — all handles released, idle past the
// TTL — and returns how many were evicted. With no TTL configured it does
// nothing; use Evict for explicit reclamation.
func (ar *Arena[T]) Sweep() int {
	if ar.ttl <= 0 {
		return 0
	}
	now := ar.now().UnixNano()
	total := 0
	for i := range ar.shards {
		total += ar.sweepShard(&ar.shards[i], now)
	}
	return total
}

// sweepShard evicts the shard's evictable objects in three phases: mark
// dead (under the shard lock), fold counters into the retired totals and
// recycle the runtimes (without the shard lock — fold takes retiredMu,
// which must never nest inside a shard lock, see Stats), then delete the
// dead entries. Deleting only after folding is what keeps the Stats
// roll-up monotone: a dead object still in the map is counted through its
// frozen counters until the exact retiredMu-guarded moment its generation
// moves into the retired totals.
func (ar *Arena[T]) sweepShard(sh *arenaShard[T], now int64) int {
	// Extend the deadline by the touch granularity: the coarse touch may
	// under-record recency by up to that much, and "idle at least the TTL"
	// must hold for the true last access.
	deadline := now - int64(ar.ttl) - ar.touchGran()
	var dead []*ArenaObject[T]
	var keys []string
	sh.mu.Lock()
	for key, ao := range sh.objs {
		if ao.markDead(deadline, false) {
			dead = append(dead, ao)
			keys = append(keys, key)
		}
	}
	sh.mu.Unlock()
	if len(dead) == 0 {
		return 0
	}
	for _, ao := range dead {
		ar.fold(ao)
	}
	sh.mu.Lock()
	for i, key := range keys {
		if sh.objs[key] == dead[i] {
			delete(sh.objs, key)
		}
	}
	sh.mu.Unlock()
	ar.evicted.Add(int64(len(dead)))
	return len(dead)
}

// Evict reclaims key's object immediately if every claimed handle has been
// released (ignoring the TTL), reporting whether an eviction happened. An
// object with a live handle is never reclaimed.
func (ar *Arena[T]) Evict(key string) bool {
	sh := &ar.shards[ar.hasher.Shard(key, len(ar.shards))]
	sh.mu.Lock()
	ao := sh.objs[key]
	ok := ao != nil && ao.markDead(0, true)
	sh.mu.Unlock()
	if !ok {
		return false
	}
	ar.fold(ao)
	sh.mu.Lock()
	if sh.objs[key] == ao {
		delete(sh.objs, key)
	}
	sh.mu.Unlock()
	ar.evicted.Add(1)
	return true
}

// ArenaStats is a point-in-time roll-up of an arena's instrumentation: the
// registry counters plus the sum of every handle's Stats across all objects
// and generations (evicted objects' counters are folded in at eviction, so
// the roll-up never shrinks). MemSteps and CASRetries aggregate the
// object-wide backend counters, one contribution per object.
type ArenaStats struct {
	// Objects is the number of live named objects.
	Objects int
	// Created and Evicted count object creations and evictions ever.
	Created, Evicted int64
	// PoolHits counts object creations served by a recycled runtime
	// instead of a fresh allocation.
	PoolHits int64
	// Handles counts handles ever claimed; LiveHandles the claimed,
	// unreleased ones.
	Handles, LiveHandles int64
	// Proposes, Steps, Scans, WaitTime, Wakeups and SpuriousWakeups sum
	// the per-handle counters of every handle ever claimed.
	Proposes, Steps, Scans   int64
	WaitTime                 time.Duration
	Wakeups, SpuriousWakeups int64
	// ScansAdopted always reads 0: scan combining, whose adopted scans it
	// counted, has been removed.
	//
	// Deprecated: kept only for readers built against the old field; it is
	// deleted with the next benchmark change.
	ScansAdopted int64
	// MemSteps and CASRetries sum the backend memory counters over all
	// objects and generations.
	MemSteps, CASRetries int64
	// AsyncInFlight and AsyncParked are gauges (not cumulative counters —
	// they fall as proposals resolve) of the arena's shared async engine:
	// ProposeAsync proposals submitted and not yet resolved, and the subset
	// currently parked on their objects' notifiers rather than advancing.
	// Both are zero until the arena's first ProposeAsync creates the engine.
	AsyncInFlight, AsyncParked int64
	// NotifyWaiters is a gauge summing Notifier.Waiters over the live
	// objects' memories: goroutines blocked in notify-waits plus parked
	// async proposals' wake registrations. It is the arena's live
	// contention signal — which the ROADMAP earmarks for admission and
	// rebalancing decisions — where the cumulative counters above are its
	// history.
	NotifyWaiters int64
}

// Stats rolls up the arena's instrumentation. Safe to call concurrently
// with serving traffic. The roll-up counts every generation exactly once —
// live objects through their handles and memory, evicted ones through the
// retired totals — so successive readings of the cumulative counters never
// decrease: holding retiredMu across the walk makes an eviction's fold
// atomic with respect to the roll-up, and a dead object is deleted from
// its shard only after it has been folded. (The gauges — Objects,
// LiveHandles, AsyncInFlight, AsyncParked, NotifyWaiters — move both ways
// by nature.)
func (ar *Arena[T]) Stats() ArenaStats {
	s := ArenaStats{
		Created:  ar.created.Load(),
		Evicted:  ar.evicted.Load(),
		PoolHits: ar.pool.Stats().Hits,
		Handles:  ar.handlesTotal.Load(),
	}
	if e := ar.eng.peek(); e != nil {
		s.AsyncInFlight = e.InFlight()
		s.AsyncParked = e.Parked()
	}
	ar.retiredMu.Lock()
	defer ar.retiredMu.Unlock()
	r := ar.retired
	s.Proposes, s.Steps, s.Scans = r.proposes, r.steps, r.scans
	s.WaitTime = time.Duration(r.waitNS)
	s.Wakeups, s.SpuriousWakeups = r.wakeups, r.spurious
	s.MemSteps, s.CASRetries = r.memSteps, r.casRetries
	for i := range ar.shards {
		sh := &ar.shards[i]
		sh.mu.RLock()
		objs := make([]*ArenaObject[T], 0, len(sh.objs))
		for _, ao := range sh.objs {
			objs = append(objs, ao)
		}
		sh.mu.RUnlock()
		for _, ao := range objs {
			if ao.folded {
				// Already in the retired totals we copied above (folded is
				// guarded by retiredMu, which we hold); counting it again
				// would double-count. Its shard entry is about to vanish.
				continue
			}
			// Not yet folded: count it through its own counters — frozen
			// ones if it has just been marked dead.
			live := !ao.Evicted()
			os := ao.Stats()
			if live {
				s.Objects++
				s.LiveHandles += int64(ao.liveHandles())
				s.NotifyWaiters += ao.notifyWaiters()
			}
			s.Proposes += os.Proposes
			s.Steps += os.Steps
			s.Scans += os.Scans
			s.WaitTime += os.WaitTime
			s.Wakeups += os.Wakeups
			s.SpuriousWakeups += os.SpuriousWakeups
			s.MemSteps += os.MemSteps
			s.CASRetries += os.CASRetries
		}
	}
	return s
}

// Observe returns the arena's structured observability snapshot: the
// per-stage latency histograms, lifecycle counters and — when drain is
// true — the recent-event ring, drained (each event appears in exactly
// one draining snapshot), plus arena-level gauges (live objects, async
// in-flight and parked counts). It requires a collector configured via
// WithObjectOptions(WithObservability(...)); without one it returns nil.
// Safe to call concurrently with serving traffic; obs/obshttp serves the
// same snapshot over HTTP.
func (ar *Arena[T]) Observe(drain bool) *obs.Snapshot {
	s := ar.opts.obs.Snapshot(drain)
	if s == nil {
		return nil
	}
	s.Gauges["arena_objects"] = int64(ar.Len())
	if e := ar.eng.peek(); e != nil {
		s.Gauges["async_in_flight"] = e.InFlight()
		s.Gauges["async_parked"] = e.Parked()
	}
	return s
}

// ArenaObject is one named agreement object served by an arena: the same
// object core as Agreement/Repeated plus per-generation claim bookkeeping.
// Handles are claimed with Proc, as on the standalone objects, and support
// Release; once every handle is released the object can be evicted.
type ArenaObject[T comparable] struct {
	key string
	ar  *Arena[T]
	obj object[T]
	err error // construction error, surfaced at claim time

	lastUse atomic.Int64 // unix nanos of the last touch

	mu      sync.Mutex
	handles []*Handle[T] // indexed by process id; nil = unclaimed
	live    int          // claimed, unreleased handles
	dead    bool         // evicted
	// frozenMemSteps/frozenCASRetries capture the memory counters at
	// eviction: the memory itself is recycled for another key's object, so
	// a retained ArenaObject must never read it again.
	frozenMemSteps   int64
	frozenCASRetries int64
	// folded marks the generation's counters as moved into the arena's
	// retired totals. Guarded by the arena's retiredMu, not ao.mu.
	folded bool
}

// Key returns the name the object is registered under.
func (ao *ArenaObject[T]) Key() string { return ao.key }

// Registers returns the object's register footprint (the paper's
// min(n+2m−k, n)).
func (ao *ArenaObject[T]) Registers() int {
	if ao.err != nil {
		return 0
	}
	return ao.obj.Registers()
}

// Proc claims process id (0 ≤ id < n) on this object generation and returns
// its handle. Each id may be claimed once per generation; after eviction,
// Proc fails with ErrEvicted and a fresh generation (with all ids free) is
// available from Arena.Object.
func (ao *ArenaObject[T]) Proc(id int) (*Handle[T], error) {
	if ao.err != nil {
		return nil, ao.err
	}
	ao.mu.Lock()
	defer ao.mu.Unlock()
	if ao.dead {
		return nil, fmt.Errorf("%w: key %q", ErrEvicted, ao.key)
	}
	if id < 0 || id >= len(ao.handles) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadID, id, len(ao.handles))
	}
	if ao.handles[id] != nil {
		return nil, fmt.Errorf("%w: process %d already claimed", ErrInUse, id)
	}
	h := ao.obj.handle(id, ao.ar.oneShot)
	h.guard.obsKey = ao.key
	h.onRelease = func() { ao.released() }
	ao.handles[id] = h
	ao.live++
	ao.lastUse.Store(ao.ar.now().UnixNano())
	ao.ar.handlesTotal.Add(1)
	return h, nil
}

// released records one handle leaving; the last release starts the idle
// clock toward eviction.
func (ao *ArenaObject[T]) released() {
	ao.mu.Lock()
	ao.live--
	ao.lastUse.Store(ao.ar.now().UnixNano())
	ao.mu.Unlock()
}

func (ao *ArenaObject[T]) liveHandles() int {
	ao.mu.Lock()
	defer ao.mu.Unlock()
	return ao.live
}

// notifyWaiters reads the object's live-contention gauge — pending waits
// on its memory's notifier. Zero once the object is dead: the memory then
// serves another key and must not be read through this generation.
func (ao *ArenaObject[T]) notifyWaiters() int64 {
	if ao.err != nil {
		return 0
	}
	ao.mu.Lock()
	defer ao.mu.Unlock()
	if ao.dead {
		return 0
	}
	if nt, ok := ao.obj.rt.mem.(shmem.Notifier); ok {
		return nt.Waiters()
	}
	return 0
}

// Evicted reports whether the object has been reclaimed.
func (ao *ArenaObject[T]) Evicted() bool {
	ao.mu.Lock()
	defer ao.mu.Unlock()
	return ao.dead
}

// Stats aggregates the object's instrumentation: per-handle counters summed
// over every handle claimed on this generation, plus the object-wide memory
// counters (MemSteps, CASRetries) taken once. After eviction the memory
// counters stay frozen at their eviction-time values (the memory itself is
// recycled and belongs to another object).
func (ao *ArenaObject[T]) Stats() Stats {
	if ao.err != nil {
		return Stats{}
	}
	ao.mu.Lock()
	dead := ao.dead
	frozenMS, frozenCR := ao.frozenMemSteps, ao.frozenCASRetries
	handles := make([]*Handle[T], 0, len(ao.handles))
	for _, h := range ao.handles {
		if h != nil {
			handles = append(handles, h)
		}
	}
	ao.mu.Unlock()
	var s Stats
	for _, h := range handles {
		s.Proposes += h.stats.proposes.Load()
		s.Steps += h.stats.steps.Load()
		s.Scans += h.stats.scans.Load()
		s.WaitTime += time.Duration(h.stats.waitNS.Load())
		s.Wakeups += h.stats.wakeups.Load()
		s.SpuriousWakeups += h.stats.spurious.Load()
	}
	if dead {
		s.MemSteps, s.CASRetries = frozenMS, frozenCR
		return s
	}
	mem := ao.obj.rt.mem
	if st, ok := mem.(shmem.Stepper); ok {
		s.MemSteps = st.Steps()
	}
	if cr, ok := mem.(shmem.CASRetrier); ok {
		s.CASRetries = cr.CASRetries()
	}
	return s
}

// markDead transitions the object to dead if it is evictable: not already
// dead, no live handles, and (unless force) idle since before the
// deadline. It freezes the memory counters in the same critical section,
// so Stats never reads the recycled memory afterwards. Called with the
// owning shard lock held; the caller must follow up with Arena.fold and
// only then delete the shard entry.
func (ao *ArenaObject[T]) markDead(idleBefore int64, force bool) bool {
	if ao.err != nil {
		return true // a stillborn object holds no runtime; just drop it
	}
	ao.mu.Lock()
	defer ao.mu.Unlock()
	if ao.dead || ao.live > 0 || (!force && ao.lastUse.Load() > idleBefore) {
		return false
	}
	// The memory is quiescent here: live == 0 means every claimed handle
	// is released (and refuses further Proposes), and new claims need the
	// mutex we hold.
	if st, ok := ao.obj.rt.mem.(shmem.Stepper); ok {
		ao.frozenMemSteps = st.Steps()
	}
	if cr, ok := ao.obj.rt.mem.(shmem.CASRetrier); ok {
		ao.frozenCASRetries = cr.CASRetries()
	}
	ao.dead = true
	return true
}

// fold moves a dead object's counters into the arena's retired totals —
// atomically with respect to Stats, which holds retiredMu across its whole
// roll-up — and recycles the runtime. Called exactly once per dead object
// (markDead returns true once), never with a shard lock held (retiredMu
// is ordered before the shard locks).
func (ar *Arena[T]) fold(ao *ArenaObject[T]) {
	if ao.err != nil {
		return
	}
	s := ao.Stats() // frozen memory counters + per-handle sums
	ar.retiredMu.Lock()
	ar.retired.proposes += s.Proposes
	ar.retired.steps += s.Steps
	ar.retired.scans += s.Scans
	ar.retired.waitNS += int64(s.WaitTime)
	ar.retired.wakeups += s.Wakeups
	ar.retired.spurious += s.SpuriousWakeups
	ar.retired.memSteps += s.MemSteps
	ar.retired.casRetries += s.CASRetries
	ao.folded = true
	ar.retiredMu.Unlock()
	ar.pool.Put(iarena.Runtime{Mem: ao.obj.rt.mem, Wrap: ao.obj.rt.wrap})
}
