package setagreement

import (
	"context"
	"testing"
	"time"
)

// leaseCycleAllocCeiling caps the allocations of one arena lease cycle on
// a one-shot arena: Object on a prebuilt key (creating the object from a
// recycled runtime), Proc, Propose, Release, then a Sweep that evicts the
// object. Measured: 11 on the default lock-free backend — the object
// shell, its runtime view and its handle table (3), the handle, its
// process and its boxed proposal (3) and one version array per Update of
// the Propose (5); the pool's reset of the evicted memory reinstalls its
// initial versions and the sweep itself allocates nothing. The ceiling
// sits beside the hot-path ceilings of alloc_guard_test.go, which live in
// the external test package; this guard needs the arena's fake clock.
const leaseCycleAllocCeiling = 12

// TestArenaLeaseCycleAllocs guards the arena's lease path end to end,
// eviction included: the idle queue, the counter move at Release and the
// sweep must not add allocations per lease.
func TestArenaLeaseCycleAllocs(t *testing.T) {
	clock := newFakeClock()
	ar, err := NewArena[int](4, 1, ArenaOneShot(), WithShards(1), WithIdleTTL(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ar.now = clock.now
	ctx := context.Background()
	const key = "lease"
	cycle := func() {
		h, err := ar.Object(key).Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		if _, err := h.Propose(ctx, 7); err != nil {
			t.Fatalf("Propose: %v", err)
		}
		if err := h.Release(); err != nil {
			t.Fatalf("Release: %v", err)
		}
		clock.advance(2 * time.Second)
		if n := ar.Sweep(); n != 1 {
			t.Fatalf("Sweep evicted %d objects, want 1", n)
		}
	}
	// Warm past one-time costs: the idle queue's ring buffer.
	for i := 0; i < 5; i++ {
		cycle()
	}
	n := testing.AllocsPerRun(100, cycle)
	t.Logf("lease cycle allocates %.2f/op", n)
	if n > leaseCycleAllocCeiling {
		t.Errorf("lease cycle allocates %.2f/op, ceiling %d", n, leaseCycleAllocCeiling)
	}
}
