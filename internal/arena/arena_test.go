package arena

import (
	"fmt"
	"sync"
	"testing"

	"setagreement/internal/register"
	"setagreement/internal/shmem"
)

func TestShards(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {17, 32},
		{MaxShards, MaxShards}, {MaxShards + 1, MaxShards},
	} {
		if got := Shards(tc.in); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	// The default is a power of two in range.
	d := Shards(0)
	if d < 1 || d > MaxShards || d&(d-1) != 0 {
		t.Errorf("Shards(0) = %d, want a power of two in [1, %d]", d, MaxShards)
	}
}

func TestHasherSpreadsAndIsStable(t *testing.T) {
	h := NewHasher()
	const shards = 8
	counts := make([]int, shards)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("key-%d", i)
		s := h.Shard(key, shards)
		if s < 0 || s >= shards {
			t.Fatalf("Shard(%q) = %d out of range", key, s)
		}
		if again := h.Shard(key, shards); again != s {
			t.Fatalf("Shard(%q) unstable: %d then %d", key, s, again)
		}
		counts[s]++
	}
	// With 4096 keys over 8 shards (512 expected each) any shard below an
	// eighth of expectation indicates a broken hash, not bad luck.
	for s, c := range counts {
		if c < 64 {
			t.Errorf("shard %d got %d of 4096 keys — hash does not spread", s, c)
		}
	}
}

func TestPoolRecyclesResettableMemory(t *testing.T) {
	var p Pool
	if _, ok := p.Get(); ok {
		t.Fatal("empty pool served a runtime")
	}
	spec := shmem.Spec{Regs: 2, Snaps: []int{3}}
	mem, err := register.LockFreeBackend.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	mem.Write(0, 42)
	mem.Update(0, 1, "dirty")
	rt := Runtime{Mem: mem, Wrap: func(int) shmem.Mem { return mem }}
	if !p.Put(rt) {
		t.Fatal("Put dropped a resettable runtime")
	}
	got, ok := p.Get()
	if !ok {
		t.Fatal("Get missed after Put")
	}
	if got.Mem != mem {
		t.Fatal("Get returned a different memory")
	}
	if v := got.Mem.Read(0); v != nil {
		t.Fatalf("recycled memory Read(0) = %v, want nil", v)
	}
	if v := got.Mem.Scan(0); v[1] != nil {
		t.Fatalf("recycled memory Scan(0)[1] = %v, want nil", v[1])
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Drops != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// unresettable is a Mem without the Resetter capability.
type unresettable struct{ shmem.Mem }

func TestPoolDropsUnresettableMemory(t *testing.T) {
	var p Pool
	mem, err := register.LockedBackend.New(shmem.Spec{Regs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Put(Runtime{Mem: unresettable{mem}}) {
		t.Fatal("Put retained a runtime without Reset support")
	}
	if _, ok := p.Get(); ok {
		t.Fatal("dropped runtime was served")
	}
	if s := p.Stats(); s.Drops != 1 || s.Puts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPoolCapBoundsFreeList(t *testing.T) {
	p := Pool{Cap: 2}
	spec := shmem.Spec{Regs: 1}
	for i := 0; i < 5; i++ {
		mem, err := register.LockFreeBackend.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		retained := p.Put(Runtime{Mem: mem, Wrap: func(int) shmem.Mem { return mem }})
		if want := i < 2; retained != want {
			t.Fatalf("Put #%d retained=%v, want %v", i, retained, want)
		}
	}
	if got := p.Len(); got != 2 {
		t.Fatalf("free list length %d, want cap 2", got)
	}
	if s := p.Stats(); s.Puts != 2 || s.Drops != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

// countingResetter is a Mem whose Reset only counts its calls.
type countingResetter struct {
	shmem.Mem
	resets int
}

func (c *countingResetter) Reset() { c.resets++ }

// TestPoolPutResetsOnlyRetained: Put resets a runtime only when the free
// list has room for it — a runtime the full pool drops is never reset.
func TestPoolPutResetsOnlyRetained(t *testing.T) {
	p := Pool{Cap: 1}
	mem, err := register.LockedBackend.New(shmem.Spec{Regs: 1})
	if err != nil {
		t.Fatal(err)
	}
	room := &countingResetter{Mem: mem}
	if !p.Put(Runtime{Mem: room}) {
		t.Fatal("Put into a pool with room dropped the runtime")
	}
	if room.resets != 1 {
		t.Fatalf("Put into a pool with room called Reset %d times, want 1", room.resets)
	}
	full := &countingResetter{Mem: mem}
	if p.Put(Runtime{Mem: full}) {
		t.Fatal("Put into a full pool retained the runtime")
	}
	if full.resets != 0 {
		t.Fatalf("Put into a full pool called Reset %d times, want 0", full.resets)
	}
	if s := p.Stats(); s.Puts != 1 || s.Drops != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPoolConcurrent(t *testing.T) {
	var p Pool
	spec := shmem.Spec{Regs: 1, Snaps: []int{2}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt, ok := p.Get()
				if !ok {
					mem, err := register.LockFreeBackend.New(spec)
					if err != nil {
						t.Error(err)
						return
					}
					rt = Runtime{Mem: mem, Wrap: func(int) shmem.Mem { return mem }}
				}
				rt.Mem.Write(0, i)
				p.Put(rt)
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if s.Puts != s.Hits+s.Misses {
		t.Fatalf("put/get imbalance: %+v", s)
	}
}

// BenchmarkShardMapReadHit compares the two candidate shard-map designs on
// the Object() hot path (read-mostly lookup of existing keys): a plain map
// behind a sync.RWMutex versus sync.Map. The RWMutex design wins or ties
// for this access pattern while keeping deletes (eviction) cheap and
// allocation-free, which is why the arena uses it; rerun this benchmark
// before changing that choice.
func BenchmarkShardMapReadHit(b *testing.B) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.Run("rwmutex-map", func(b *testing.B) {
		var mu sync.RWMutex
		m := make(map[string]*int, len(keys))
		for i := range keys {
			v := i
			m[keys[i]] = &v
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				mu.RLock()
				p := m[keys[i&255]]
				mu.RUnlock()
				if p == nil {
					b.Error("missing key")
					return
				}
				i++
			}
		})
	})
	b.Run("sync-map", func(b *testing.B) {
		var m sync.Map
		for i := range keys {
			v := i
			m.Store(keys[i], &v)
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				p, ok := m.Load(keys[i&255])
				if !ok || p == nil {
					b.Error("missing key")
					return
				}
				i++
			}
		})
	})
}
