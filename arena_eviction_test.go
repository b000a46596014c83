package setagreement

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// statsRegressed reports the first cumulative ArenaStats counter that is
// lower in now than in prev, or "" when none is. The gauges (Objects,
// LiveHandles, AsyncInFlight, AsyncParked, NotifyWaiters) move both ways
// by nature and are not compared.
func statsRegressed(prev, now ArenaStats) string {
	for _, c := range []struct {
		name      string
		prev, now int64
	}{
		{"Created", prev.Created, now.Created},
		{"Evicted", prev.Evicted, now.Evicted},
		{"PoolHits", prev.PoolHits, now.PoolHits},
		{"Handles", prev.Handles, now.Handles},
		{"Proposes", prev.Proposes, now.Proposes},
		{"Steps", prev.Steps, now.Steps},
		{"Scans", prev.Scans, now.Scans},
		{"WaitTime", int64(prev.WaitTime), int64(now.WaitTime)},
		{"Wakeups", prev.Wakeups, now.Wakeups},
		{"SpuriousWakeups", prev.SpuriousWakeups, now.SpuriousWakeups},
		{"MemSteps", prev.MemSteps, now.MemSteps},
		{"CASRetries", prev.CASRetries, now.CASRetries},
	} {
		if c.now < c.prev {
			return fmt.Sprintf("%s fell from %d to %d", c.name, c.prev, c.now)
		}
	}
	return ""
}

// TestArenaEvictionBoundAfterTouch pins WithIdleTTL's bound for an object
// looked up after its last release: it is evicted once idle for 1.25 TTL
// since that lookup, even when a sweep met its older queue entry in
// between and younger entries were queued behind it.
func TestArenaEvictionBoundAfterTouch(t *testing.T) {
	clock := newFakeClock()
	ar, err := NewArena[int](2, 1, WithShards(1), WithIdleTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ar.now = clock.now
	h, err := ar.Object("k").Proc(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	clock.advance(500 * time.Millisecond)
	ar.Object("k") // a touch: the idle clock restarts
	clock.advance(700 * time.Millisecond)
	ar.Object("younger")
	clock.advance(300 * time.Millisecond)
	if n := ar.Sweep(); n != 0 {
		t.Fatalf("Sweep evicted %d objects 1.5 TTL after the release, 1 TTL after the touch", n)
	}
	clock.advance(300 * time.Millisecond)
	if n := ar.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d objects 1.3 TTL after the touch, want 1", n)
	}
}

// TestArenaSweepRequeuesTouchedEntry covers the window between a touch's
// idle-clock store and its queue push: a sweep that pops the object's
// entry in that window finds it touched after the deadline and must put
// the entry back, or the object, idle from then on, is never evicted.
func TestArenaSweepRequeuesTouchedEntry(t *testing.T) {
	clock := newFakeClock()
	ar, err := NewArena[int](2, 1, WithShards(1), WithIdleTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ar.now = clock.now
	ao := ar.Object("k") // queued at creation
	clock.advance(2 * time.Second)
	ao.lastUse.Store(clock.now().UnixNano()) // the touch's store, its push still to come
	if n := ar.Sweep(); n != 0 {
		t.Fatalf("Sweep evicted %d objects right after a touch", n)
	}
	clock.advance(2 * time.Second)
	if n := ar.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d objects 2 TTL after the touch, want 1: the popped entry was lost", n)
	}
}

// TestArenaEvictionConcurrentChurn races lease cycles on fresh keys against
// lookups of fixed idle keys, sweeps and Stats readers, on the fake clock.
// The touches land while sweeps pop the idle queue, so an entry a sweep
// pops for a just-touched object must go back in: once everything has been
// idle past twice the TTL, one Sweep must leave the arena empty. A lost
// entry leaves its object behind for good.
func TestArenaEvictionConcurrentChurn(t *testing.T) {
	const (
		ttl      = time.Second
		churners = 4
		touchers = 2
		cycles   = 400
	)
	clock := newFakeClock()
	ar, err := NewArena[int](2, 1, ArenaOneShot(), WithShards(2), WithIdleTTL(ttl))
	if err != nil {
		t.Fatal(err)
	}
	ar.now = clock.now
	ctx := context.Background()

	var proposes atomic.Int64
	var churn sync.WaitGroup
	for g := 0; g < churners; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for i := 0; i < cycles; i++ {
				key := fmt.Sprintf("lease-%d-%d", g, i)
				h, err := ar.Object(key).Proc(0)
				for errors.Is(err, ErrEvicted) {
					// A sweep took the fresh object before the claim: the
					// documented answer is to fetch the key again.
					h, err = ar.Object(key).Proc(0)
				}
				if err != nil {
					t.Errorf("Proc(%s): %v", key, err)
					return
				}
				proposes.Add(1)
				if got, err := h.Propose(ctx, i); err != nil || got != i {
					t.Errorf("Propose(%s) = %d, %v; want its own value %d", key, got, err, i)
					return
				}
				if err := h.Release(); err != nil {
					t.Errorf("Release(%s): %v", key, err)
					return
				}
				clock.advance(ttl / 64)
				if i%16 == 0 {
					ar.Sweep()
				}
			}
		}(g)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	for g := 0; g < touchers; g++ {
		bg.Add(1)
		go func(g int) {
			defer bg.Done()
			keys := []string{fmt.Sprintf("idle-%d-a", g), fmt.Sprintf("idle-%d-b", g)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range keys {
					ar.Object(k)
				}
				goruntime.Gosched()
			}
		}(g)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		prev := ar.Stats()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := ar.Stats()
			if msg := statsRegressed(prev, s); msg != "" {
				t.Errorf("ArenaStats not monotone: %s", msg)
				return
			}
			prev = s
			goruntime.Gosched()
		}
	}()

	churn.Wait()
	close(stop)
	bg.Wait()

	clock.advance(2*ttl + ttl/4)
	ar.Sweep()
	s := ar.Stats()
	if ar.Len() != 0 || s.Created != s.Evicted {
		t.Fatalf("after idling past 2×TTL and a Sweep: Len = %d, Created = %d, Evicted = %d; want an empty arena",
			ar.Len(), s.Created, s.Evicted)
	}
	if s.Proposes != proposes.Load() {
		t.Fatalf("roll-up Proposes = %d, want the %d proposals made", s.Proposes, proposes.Load())
	}
}

// Op-string alphabet of FuzzArenaEviction. Each letter is one op; a digit
// after it picks the key (key 0 without one).
const (
	opObject  = 'O' // Object(key): create, or touch
	opProc    = 'P' // Object(key).Proc(next free id), then Propose
	opRelease = 'R' // Release the key's oldest live handle
	opAdvance = 'A' // advance the clock by TTL/4
	opSweep   = 'S' // Sweep
	opEvict   = 'E' // Evict(key)
)

const (
	fuzzTTL  = time.Second
	fuzzKeys = 4
	fuzzN    = 2
	fuzzOps  = 256
)

// FuzzArenaEviction runs an op string (see opObject and its siblings) on a
// one-shot arena under the fake clock, and checks the eviction contract
// after every op:
//   - a key with a live handle keeps its object: Object returns it and it
//     is not evicted, and Evict refuses it;
//   - Created − Evicted == Len;
//   - the cumulative ArenaStats never decrease, and Proposes, Steps and
//     Scans equal the sums over every handle ever claimed.
//
// At the end, every released handle's counters are still what it reported
// at Release, and after advancing 2×TTL and a Sweep, Len equals the number
// of keys with a live handle. "P0AAAAAAR0AAAAAS", for example, holds key 0's
// handle past the TTL, releases it and sweeps once it has idled out.
func FuzzArenaEviction(f *testing.F) {
	for _, seed := range []string{
		"",
		"O0AAAAAS",
		"P0AAAAAAAASR0AAAAAS",
		"P0P0R0AAAAAASR0AAAAAS",
		"P1O1AAO1AAO1AAO1AAR1AAO1AAAAAS",
		"P2R2E2P2R2AAAAAE2S",
		"P0P1P2P3R0R1AAAAAO2SR2R3AAAAAS",
		"O3AAAO3AAAO3AAASAAAAAS",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops string) {
		if len(ops) > fuzzOps {
			ops = ops[:fuzzOps]
		}
		runEvictionOps(t, ops)
	})
}

// fuzzKey is the model of one key: the generation Object last returned,
// the next id to claim on it, its live handles (oldest first) and the
// value its first proposer decided.
type fuzzKey struct {
	obj     *ArenaObject[int]
	next    int
	live    []*Handle[int]
	decided int
	has     bool
}

func runEvictionOps(t *testing.T, ops string) {
	clock := newFakeClock()
	ar, err := NewArena[int](fuzzN, 1, ArenaOneShot(), WithShards(2), WithIdleTTL(fuzzTTL))
	if err != nil {
		t.Fatal(err)
	}
	ar.now = clock.now
	ctx := context.Background()
	var keys [fuzzKeys]fuzzKey
	// want sums the counters of every handle ever claimed. A handle's
	// counters move only during its own Propose, so adding them once,
	// after it, keeps the sums exact.
	var want Stats
	type releasedHandle struct {
		h     *Handle[int]
		stats Stats
	}
	var released []releasedHandle
	prev := ar.Stats()

	lookup := func(k int) *ArenaObject[int] {
		m := &keys[k]
		obj := ar.Object(fmt.Sprint(k))
		if len(m.live) > 0 && obj != m.obj {
			t.Fatalf("key %d: Object returned a new generation while a handle is live", k)
		}
		if obj != m.obj {
			*m = fuzzKey{obj: obj}
		}
		return obj
	}
	for i := 0; i < len(ops); i++ {
		op, k := ops[i], 0
		if i+1 < len(ops) && ops[i+1] >= '0' && ops[i+1] <= '9' {
			k = int(ops[i+1]-'0') % fuzzKeys
			i++
		}
		m := &keys[k]
		switch op {
		case opObject:
			lookup(k)
		case opProc:
			obj := lookup(k)
			if m.next == fuzzN {
				break
			}
			h, err := obj.Proc(m.next)
			if err != nil {
				t.Fatalf("op %d: Proc(%d) on key %d: %v", i, m.next, k, err)
			}
			m.next++
			m.live = append(m.live, h)
			got, err := h.Propose(ctx, 100*k+m.next)
			if err != nil {
				t.Fatalf("op %d: Propose on key %d: %v", i, k, err)
			}
			hs := h.Stats()
			want.Proposes += hs.Proposes
			want.Steps += hs.Steps
			want.Scans += hs.Scans
			if !m.has {
				m.decided, m.has = got, true
			} else if got != m.decided {
				t.Fatalf("op %d: key %d decided %d and %d with k=1", i, k, m.decided, got)
			}
		case opRelease:
			if len(m.live) == 0 {
				break
			}
			h := m.live[0]
			s := h.Stats()
			if err := h.Release(); err != nil {
				t.Fatalf("op %d: Release on key %d: %v", i, k, err)
			}
			m.live = m.live[1:]
			released = append(released, releasedHandle{h, s})
		case opAdvance:
			clock.advance(fuzzTTL / 4)
		case opSweep:
			ar.Sweep()
		case opEvict:
			want := m.obj != nil && !m.obj.Evicted() && len(m.live) == 0
			if got := ar.Evict(fmt.Sprint(k)); got != want {
				t.Fatalf("op %d: Evict(key %d) = %v, want %v (live handles %d)", i, k, got, want, len(m.live))
			}
		}

		for k := range keys {
			if len(keys[k].live) > 0 && keys[k].obj.Evicted() {
				t.Fatalf("op %d: key %d evicted with %d live handles", i, k, len(keys[k].live))
			}
		}
		s := ar.Stats()
		if n := int64(ar.Len()); s.Created-s.Evicted != n {
			t.Fatalf("op %d: Created − Evicted = %d − %d, Len = %d", i, s.Created, s.Evicted, n)
		}
		if msg := statsRegressed(prev, s); msg != "" {
			t.Fatalf("op %d: ArenaStats not monotone: %s", i, msg)
		}
		prev = s
		if s.Proposes != want.Proposes || s.Steps != want.Steps || s.Scans != want.Scans {
			t.Fatalf("op %d: roll-up (proposes %d, steps %d, scans %d) != handle sum (%d, %d, %d)",
				i, s.Proposes, s.Steps, s.Scans, want.Proposes, want.Steps, want.Scans)
		}
	}

	for _, r := range released {
		got := r.h.Stats()
		got.MemSteps, got.CASRetries = r.stats.MemSteps, r.stats.CASRetries // object-wide, not the handle's
		if got != r.stats {
			t.Fatalf("released handle's Stats moved: %+v, reported %+v at Release", got, r.stats)
		}
	}

	clock.advance(2 * fuzzTTL)
	ar.Sweep()
	held := 0
	for k := range keys {
		if len(keys[k].live) > 0 {
			held++
		}
	}
	s := ar.Stats()
	if ar.Len() != held || s.Created-s.Evicted != int64(held) {
		t.Fatalf("after idling 2×TTL and a Sweep: Len = %d, Created − Evicted = %d, want the %d keys with live handles",
			ar.Len(), s.Created-s.Evicted, held)
	}
}
