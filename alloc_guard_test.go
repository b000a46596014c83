package setagreement_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	sa "setagreement"
)

// Allocation ceilings for a solo (uncontended) proposal on a repeated
// object, enforced by the guard tests below so hot-path regressions fail CI
// rather than silently landing. Measured: 7 allocs for a blocking Propose on
// both backends (the lock-free backend pays one version array per Update,
// the mutex backend one copy per Scan; both pay one boxed tuple per Propose
// and one history append per decision), 12 for ProposeAsync (adding the
// future, the proposal wrapper and engine bookkeeping). The ceilings leave a
// little slack over those measurements; raising them requires justifying the
// regression, not just re-measuring. The arena lease-cycle ceiling,
// leaseCycleAllocCeiling, sits in alloc_guard_internal_test.go, whose test
// needs the arena's fake clock.
const (
	soloProposeAllocCeiling      = 10
	soloProposeAsyncAllocCeiling = 16

	// Per-proposal ceiling for a full SubmitAll round (submit + decide +
	// resolve) over 64 solo arena handles. Measured: 7.25 — the slab
	// amortization leaves roughly the blocking path's own allocations plus
	// a fraction of the per-batch slabs, against 12 for the looped
	// ProposeAsync equivalent.
	batchRoundAllocCeiling = 9
)

// soloProposeAllocs measures steady-state allocations of one solo Propose
// (or ProposeAsync resolved through its future) on a fresh repeated object.
func soloProposeAllocs(t *testing.T, backend sa.MemoryBackend, async bool) float64 {
	t.Helper()
	ctx := context.Background()
	r, err := sa.NewRepeated[int](4, 1, sa.WithMemoryBackend(backend))
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	propose := func() {
		var err error
		if async {
			_, err = h.ProposeAsync(ctx, 7).Value()
		} else {
			_, err = h.Propose(ctx, 7)
		}
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
	}
	// Warm the handle past one-time costs (engine creation on the async
	// path, lazy wait-plan allocation) so the run measures the steady state.
	for i := 0; i < 5; i++ {
		propose()
	}
	return testing.AllocsPerRun(100, propose)
}

// TestProposeSoloAllocs guards the blocking hot path: a solo Propose must
// stay within the allocation ceiling on every backend.
func TestProposeSoloAllocs(t *testing.T) {
	for _, be := range []sa.MemoryBackend{sa.BackendLockFree, sa.BackendLocked} {
		t.Run(fmt.Sprint(be), func(t *testing.T) {
			if n := soloProposeAllocs(t, be, false); n > soloProposeAllocCeiling {
				t.Errorf("solo Propose allocates %.0f/op on %v, ceiling %d",
					n, be, soloProposeAllocCeiling)
			}
		})
	}
}

// TestProposeAsyncSoloAllocs guards the engine-driven hot path likewise.
func TestProposeAsyncSoloAllocs(t *testing.T) {
	for _, be := range []sa.MemoryBackend{sa.BackendLockFree, sa.BackendLocked} {
		t.Run(fmt.Sprint(be), func(t *testing.T) {
			if n := soloProposeAllocs(t, be, true); n > soloProposeAsyncAllocCeiling {
				t.Errorf("solo ProposeAsync allocates %.0f/op on %v, ceiling %d",
					n, be, soloProposeAsyncAllocCeiling)
			}
		})
	}
}

// TestSubmitBatchAllocs guards the batch hot path: one SubmitAll round
// over 64 solo arena handles — submission through decision through future
// resolution — must stay under the per-proposal ceiling. The looped
// ProposeAsync path allocates ~12 per proposal; the batch path's slabs
// must keep it well below that.
func TestSubmitBatchAllocs(t *testing.T) {
	ctx := context.Background()
	const size = 64
	ar, err := sa.NewArena[int](4, 1)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	handles := make([]*sa.Handle[int], size)
	for i := range handles {
		h, err := ar.Object(fmt.Sprintf("alloc-%d", i)).Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		handles[i] = h
	}
	vals := make([]int, size)
	round := func() {
		b, err := sa.SubmitAll(ctx, handles, vals)
		if err != nil {
			t.Fatalf("SubmitAll: %v", err)
		}
		for i := 0; i < size; i++ {
			if _, err := b.Future(i).Value(); err != nil {
				t.Fatalf("proposal %d: %v", i, err)
			}
		}
	}
	// Warm past one-time costs (engine creation, wait plans).
	for i := 0; i < 5; i++ {
		round()
	}
	if n := testing.AllocsPerRun(50, round) / size; n > batchRoundAllocCeiling {
		t.Errorf("batch round allocates %.2f/proposal, ceiling %d", n, batchRoundAllocCeiling)
	}
}

// The allocation counts above do not grow with the depth of a repeated
// object's output history, so they cannot catch a history whose cost does.
// The depth gate below compares heap bytes per Propose at a shallow and a
// deep history instead: the deep figure may exceed the shallow one by at
// most depthByteSlack.
const (
	shallowDepth   = 128
	deepDepth      = 4096
	depthByteSlack = 64
)

// proposeN runs n Proposes of v on h and returns n.
func proposeN(t *testing.T, h *sa.Handle[int], n, v int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := h.Propose(context.Background(), v); err != nil {
			t.Fatalf("propose: %v", err)
		}
	}
	return n
}

// bytesPerPropose reports heap bytes allocated per measured Propose. Each
// of rounds rounds runs lead unmeasured, when non-nil, and then measure,
// which returns how many Proposes it made.
func bytesPerPropose(rounds int, lead func(), measure func() int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var bytes uint64
	calls := 0
	for i := 0; i < rounds; i++ {
		if lead != nil {
			lead()
		}
		runtime.ReadMemStats(&before)
		calls += measure()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	return float64(bytes) / float64(calls)
}

// depthCases each build a fresh object, grow its history to depth and
// report bytes per Propose from there.
var depthCases = []struct {
	name  string
	bytes func(t *testing.T, depth int) float64
}{
	{"repeated leader", func(t *testing.T, depth int) float64 {
		r, err := sa.NewRepeated[int](4, 1)
		if err != nil {
			t.Fatalf("NewRepeated: %v", err)
		}
		h, err := r.Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		proposeN(t, h, depth, 7)
		return bytesPerPropose(8, nil, func() int { return proposeN(t, h, 64, 7) })
	}},
	{"repeated follower 64 behind", func(t *testing.T, depth int) float64 {
		r, err := sa.NewRepeated[int](2, 1)
		if err != nil {
			t.Fatalf("NewRepeated: %v", err)
		}
		leader, err := r.Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		follower, err := r.Proc(1)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		proposeN(t, leader, depth, 7)
		proposeN(t, follower, depth, 8)
		return bytesPerPropose(8,
			func() { proposeN(t, leader, 64, 7) },
			func() int { return proposeN(t, follower, 64, 8) })
	}},
	{"anonymous solo session", func(t *testing.T, depth int) float64 {
		a, err := sa.NewAnonymous[int](4, 1)
		if err != nil {
			t.Fatalf("NewAnonymous: %v", err)
		}
		h, err := a.Session()
		if err != nil {
			t.Fatalf("Session: %v", err)
		}
		proposeN(t, h, depth, 7)
		return bytesPerPropose(8, nil, func() int { return proposeN(t, h, 64, 7) })
	}},
}

// TestProposeBytesIndependentOfDepth guards the constant-cost output
// histories of Figures 4 and 5: a Propose at a deep history may allocate at
// most depthByteSlack bytes more than one at a shallow history, for a solo
// leader, a follower catching up 64 instances and an anonymous session.
func TestProposeBytesIndependentOfDepth(t *testing.T) {
	for _, c := range depthCases {
		t.Run(c.name, func(t *testing.T) {
			shallow, deep := c.bytes(t, shallowDepth), c.bytes(t, deepDepth)
			t.Logf("%.0f B/op at depth %d, %.0f B/op at depth %d", shallow, shallowDepth, deep, deepDepth)
			if deep > shallow+depthByteSlack {
				t.Errorf("Propose allocates %.0f B at depth %d against %.0f B at depth %d, slack %d B",
					deep, deepDepth, shallow, shallowDepth, depthByteSlack)
			}
		})
	}
}
