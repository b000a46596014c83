package setagreement_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"setagreement"
)

// claimAll claims handles 0..n-1 on a one-shot object, failing the test on
// any claim error.
func claimAll[T comparable](t *testing.T, a *setagreement.Agreement[T], n int) []*setagreement.Handle[T] {
	t.Helper()
	handles := make([]*setagreement.Handle[T], n)
	for id := 0; id < n; id++ {
		h, err := a.Proc(id)
		if err != nil {
			t.Fatalf("Proc(%d): %v", id, err)
		}
		handles[id] = h
	}
	return handles
}

func TestOneShotConcurrentGoroutines(t *testing.T) {
	for _, impl := range []setagreement.SnapshotImpl{
		setagreement.SnapshotAtomic,
		setagreement.SnapshotWaitFree,
		setagreement.SnapshotSingleWriter,
		setagreement.SnapshotDoubleCollect,
	} {
		t.Run(impl.String(), func(t *testing.T) {
			const n, k = 6, 2
			a, err := setagreement.New[int](n, k,
				setagreement.WithSnapshot(impl),
				setagreement.WithBackoff(time.Microsecond, time.Millisecond, 64),
			)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			handles := claimAll(t, a, n)
			results := make([]int, n)
			var wg sync.WaitGroup
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for id := 0; id < n; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					out, err := handles[id].Propose(ctx, 100+id)
					if err != nil {
						t.Errorf("propose %d: %v", id, err)
						return
					}
					results[id] = out
				}(id)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			distinct := make(map[int]bool)
			for id, v := range results {
				if v < 100 || v >= 100+n {
					t.Fatalf("process %d decided non-input %d", id, v)
				}
				distinct[v] = true
			}
			if len(distinct) > k {
				t.Fatalf("k-agreement violated: %v", results)
			}
		})
	}
}

func TestMemoryBackends(t *testing.T) {
	// Every snapshot runtime must reach agreement on every memory backend:
	// the backend changes only how atomic steps are synchronized.
	for _, backend := range []setagreement.MemoryBackend{
		setagreement.BackendLockFree,
		setagreement.BackendLocked,
	} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			for _, impl := range []setagreement.SnapshotImpl{
				setagreement.SnapshotAtomic,
				setagreement.SnapshotWaitFree,
				setagreement.SnapshotSingleWriter,
				setagreement.SnapshotDoubleCollect,
			} {
				t.Run(impl.String(), func(t *testing.T) {
					const n, k = 5, 2
					a, err := setagreement.New[int](n, k,
						setagreement.WithSnapshot(impl),
						setagreement.WithMemoryBackend(backend),
						setagreement.WithBackoff(time.Microsecond, time.Millisecond, 64),
					)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					handles := claimAll(t, a, n)
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					results := make([]int, n)
					var wg sync.WaitGroup
					for id := 0; id < n; id++ {
						wg.Add(1)
						go func(id int) {
							defer wg.Done()
							out, err := handles[id].Propose(ctx, 100+id)
							if err != nil {
								t.Errorf("propose %d: %v", id, err)
								return
							}
							results[id] = out
						}(id)
					}
					wg.Wait()
					if t.Failed() {
						return
					}
					distinct := make(map[int]bool)
					for id, v := range results {
						if v < 100 || v >= 100+n {
							t.Fatalf("process %d decided non-input %d", id, v)
						}
						distinct[v] = true
					}
					if len(distinct) > k {
						t.Fatalf("k-agreement violated: %v", results)
					}
				})
			}
		})
	}
}

func TestMemoryBackendStrings(t *testing.T) {
	if got := setagreement.BackendLockFree.String(); got != "lockfree" {
		t.Fatalf("BackendLockFree = %q", got)
	}
	if got := setagreement.BackendLocked.String(); got != "locked" {
		t.Fatalf("BackendLocked = %q", got)
	}
	if _, err := setagreement.New[int](3, 1, setagreement.WithMemoryBackend(setagreement.MemoryBackend(99))); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestOneShotLifecycleErrors(t *testing.T) {
	a, err := setagreement.New[int](3, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := a.Proc(5); !errors.Is(err, setagreement.ErrBadID) {
		t.Fatalf("bad id err = %v", err)
	}
	if _, err := a.Proc(-1); !errors.Is(err, setagreement.ErrBadID) {
		t.Fatalf("negative id err = %v", err)
	}
	h, err := a.Proc(0)
	if err != nil {
		t.Fatalf("Proc(0): %v", err)
	}
	if _, err := a.Proc(0); !errors.Is(err, setagreement.ErrInUse) {
		t.Fatalf("double claim err = %v", err)
	}
	if got := h.ID(); got != 0 {
		t.Fatalf("ID = %d", got)
	}
	if _, err := h.Propose(ctx, 7); err != nil {
		t.Fatalf("first propose: %v", err)
	}
	if _, err := h.Propose(ctx, 8); !errors.Is(err, setagreement.ErrAlreadyProposed) {
		t.Fatalf("second propose err = %v", err)
	}
	if got := a.Registers(); got != 3 { // min(n+2m-k, n) = min(4, 3)
		t.Fatalf("Registers = %d, want 3", got)
	}
}

func TestRepeatedSequenceAgreement(t *testing.T) {
	const n, k, rounds = 4, 1, 5
	r, err := setagreement.NewRepeated[int](n, k)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	decided := make([][]int, n)
	for id := 0; id < n; id++ {
		h, err := r.Proc(id)
		if err != nil {
			t.Fatalf("Proc(%d): %v", id, err)
		}
		wg.Add(1)
		go func(id int, h *setagreement.Handle[int]) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				out, err := h.Propose(ctx, 1000*round+id)
				if err != nil {
					t.Errorf("propose %d/%d: %v", id, round, err)
					return
				}
				decided[id] = append(decided[id], out)
			}
		}(id, h)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Consensus per instance: all processes agree on each round.
	for round := 0; round < rounds; round++ {
		want := decided[0][round]
		for id := 1; id < n; id++ {
			if decided[id][round] != want {
				t.Fatalf("round %d: process %d decided %d, process 0 decided %d",
					round, id, decided[id][round], want)
			}
		}
	}
}

// TestRepeatedFollowerFarBehind: a follower 65,536 instances behind the
// leader adopts the leader's history and decides every leader value, in
// order. Each catch-up Propose reads one entry of a 65,536-entry history,
// so the test stays fast only while that read is cheap at any depth.
func TestRepeatedFollowerFarBehind(t *testing.T) {
	const depth = 1 << 16
	r, err := setagreement.NewRepeated[int](2, 1)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	leader, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc(0): %v", err)
	}
	follower, err := r.Proc(1)
	if err != nil {
		t.Fatalf("Proc(1): %v", err)
	}
	ctx := context.Background()
	for i := 0; i < depth; i++ {
		if out, err := leader.Propose(ctx, i); err != nil || out != i {
			t.Fatalf("solo leader instance %d decided %d, %v", i+1, out, err)
		}
	}
	for i := 0; i < depth; i++ {
		if out, err := follower.Propose(ctx, -1); err != nil || out != i {
			t.Fatalf("follower instance %d decided %d, %v; the leader decided %d", i+1, out, err, i)
		}
	}
}

func TestAnonymousSessions(t *testing.T) {
	const n, k = 5, 2
	a, err := setagreement.NewAnonymous[int](n, k)
	if err != nil {
		t.Fatalf("NewAnonymous: %v", err)
	}
	if want := (1+1)*(n-k) + 1 + 1; a.Registers() != want {
		t.Fatalf("Registers = %d, want %d", a.Registers(), want)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		s, err := a.Session()
		if err != nil {
			t.Fatalf("Session %d: %v", i, err)
		}
		if got := s.ID(); got != -1 {
			t.Fatalf("anonymous session ID = %d, want -1", got)
		}
		wg.Add(1)
		go func(i int, s *setagreement.Handle[int]) {
			defer wg.Done()
			out, err := s.Propose(ctx, 100+i)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			results[i] = out
		}(i, s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	distinct := make(map[int]bool)
	for _, v := range results {
		distinct[v] = true
	}
	if len(distinct) > k {
		t.Fatalf("k-agreement violated: %v", results)
	}
	if _, err := a.Session(); !errors.Is(err, setagreement.ErrTooManySessions) {
		t.Fatalf("session overflow err = %v", err)
	}
}

func TestAnonymousOneShot(t *testing.T) {
	const n, k = 4, 2
	a, err := setagreement.NewAnonymousOneShot[int](n, k)
	if err != nil {
		t.Fatalf("NewAnonymousOneShot: %v", err)
	}
	// One register fewer than the repeated variant.
	rep, err := setagreement.NewAnonymous[int](n, k)
	if err != nil {
		t.Fatalf("NewAnonymous: %v", err)
	}
	if a.Registers() != rep.Registers()-1 {
		t.Fatalf("one-shot regs = %d, repeated = %d; want a difference of 1",
			a.Registers(), rep.Registers())
	}
	s, err := a.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	ctx := context.Background()
	if _, err := s.Propose(ctx, 5); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if _, err := s.Propose(ctx, 6); !errors.Is(err, setagreement.ErrAlreadyProposed) {
		t.Fatalf("second propose err = %v", err)
	}
}

func TestAnonymousRejectsIdentifiedSnapshots(t *testing.T) {
	if _, err := setagreement.NewAnonymous[int](4, 2, setagreement.WithSnapshot(setagreement.SnapshotWaitFree)); err == nil {
		t.Fatal("anonymous object accepted an identified snapshot runtime")
	}
	if _, err := setagreement.NewAnonymous[int](4, 2, setagreement.WithSnapshot(setagreement.SnapshotDoubleCollect)); err != nil {
		t.Fatalf("double-collect should be allowed: %v", err)
	}
}

func TestProposeCancellation(t *testing.T) {
	// With n=2, k=1, m=1 and only one process proposing, a solo propose
	// decides quickly. To exercise cancellation deterministically, use an
	// already-cancelled context.
	a, err := setagreement.New[int](2, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := a.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Propose(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled propose err = %v", err)
	}
	// The handle is poisoned afterwards.
	if _, err := h.Propose(context.Background(), 1); !errors.Is(err, setagreement.ErrPoisoned) {
		t.Fatalf("poisoned propose err = %v", err)
	}
	// Other handles are unaffected.
	other, err := a.Proc(1)
	if err != nil {
		t.Fatalf("Proc(1): %v", err)
	}
	if _, err := other.Propose(context.Background(), 9); err != nil {
		t.Fatalf("other handle: %v", err)
	}
}

func TestBackoffSleepHonorsContext(t *testing.T) {
	// A Propose that is waiting at a yield point must observe cancellation
	// promptly rather than running out the cap. On the wait-free snapshot
	// runtime every yield counts as contended (own writes cannot be told
	// from foreign ones), so backoff of min = max = 1h with window 1 puts
	// the very first shared-memory operation into an hour-capped wait;
	// cancellation after 50ms must unwind it immediately.
	r, err := setagreement.NewRepeated[int](2, 1,
		setagreement.WithSnapshot(setagreement.SnapshotWaitFree),
		setagreement.WithBackoff(time.Hour, time.Hour, 1))
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = h.Propose(ctx, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("propose err = %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled propose took %v; the capped wait ignored the context", elapsed)
	}
	if got := h.Stats().WaitTime; got <= 0 {
		t.Fatalf("WaitTime = %v after a capped wait", got)
	}
}

func TestConcurrentProposeOnOneHandleRejected(t *testing.T) {
	// A handle is one process: overlapping Proposes are rejected with
	// ErrInUse, never interleaved. Force overlap by brute force: many
	// concurrent Proposes on one handle, count ErrInUse — at least zero
	// (no overlap) and never a data race.
	r, err := setagreement.NewRepeated[int](2, 1)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	ctx := context.Background()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		inUse  int
		others []error
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := h.Propose(ctx, g)
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(err, setagreement.ErrInUse) {
				inUse++
				return
			}
			if err != nil {
				others = append(others, err)
			}
		}(g)
	}
	wg.Wait()
	if len(others) != 0 {
		t.Fatalf("unexpected errors: %v", others)
	}
	// Whatever overlapped was rejected; the handle remains usable.
	if _, err := h.Propose(ctx, 99); err != nil {
		t.Fatalf("handle unusable after contention: %v", err)
	}
	t.Logf("%d overlapping calls rejected with ErrInUse", inUse)
}

func TestOptionValidation(t *testing.T) {
	if _, err := setagreement.New[int](4, 2, setagreement.WithObstruction(0)); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := setagreement.New[int](4, 2, setagreement.WithObstruction(3)); err == nil {
		t.Fatal("m>k accepted")
	}
	// The backoff schedule is validated at construction, for every entry
	// point: non-positive durations, inverted bounds and a degenerate
	// window are all rejected before any handle exists.
	if _, err := setagreement.New[int](4, 2, setagreement.WithBackoff(0, time.Second, 1)); err == nil {
		t.Fatal("zero backoff min accepted")
	}
	if _, err := setagreement.New[int](4, 2, setagreement.WithBackoff(-time.Second, time.Second, 1)); err == nil {
		t.Fatal("negative backoff min accepted")
	}
	if _, err := setagreement.New[int](4, 2, setagreement.WithBackoff(time.Second, time.Millisecond, 1)); err == nil {
		t.Fatal("backoff min > max accepted")
	}
	if _, err := setagreement.New[int](4, 2, setagreement.WithBackoff(time.Millisecond, time.Second, 0)); err == nil {
		t.Fatal("zero backoff window accepted")
	}
	if _, err := setagreement.New[int](4, 2, setagreement.WithBackoff(time.Millisecond, time.Second, -3)); err == nil {
		t.Fatal("negative backoff window accepted")
	}
	if _, err := setagreement.NewRepeated[int](4, 2, setagreement.WithBackoff(time.Second, time.Millisecond, 8)); err == nil {
		t.Fatal("NewRepeated accepted an invalid backoff")
	}
	if _, err := setagreement.NewArena[int](4, 2, setagreement.WithObjectOptions(setagreement.WithBackoff(time.Second, time.Millisecond, 8))); err == nil {
		t.Fatal("NewArena accepted an invalid backoff in its object mold")
	}
	if _, err := setagreement.New[int](4, 2, setagreement.WithSnapshot(setagreement.SnapshotImpl(42))); err == nil {
		t.Fatal("unknown snapshot impl accepted")
	}
	if _, err := setagreement.New[int](4, 4); err == nil {
		t.Fatal("k=n accepted")
	}
	if _, err := setagreement.New[int](4, 2, setagreement.WithCodec[string](nil)); err == nil {
		t.Fatal("nil codec accepted")
	}
	// A codec for the wrong domain fails at construction, not at Propose.
	if _, err := setagreement.New[string](4, 2, setagreement.WithCodec(setagreement.IdentityCodec())); err == nil {
		t.Fatal("codec domain mismatch accepted")
	}
}

func TestObstructionDegreeRegisters(t *testing.T) {
	// min(n+2m−k, n) register accounting through the facade.
	tests := []struct {
		n, m, k int
		want    int
	}{
		{n: 8, m: 1, k: 3, want: 7},  // 8+2-3
		{n: 8, m: 3, k: 3, want: 8},  // 8+6-3=11 capped at 8
		{n: 10, m: 2, k: 5, want: 9}, // 10+4-5
	}
	for _, tt := range tests {
		a, err := setagreement.New[int](tt.n, tt.k, setagreement.WithObstruction(tt.m))
		if err != nil {
			t.Fatalf("New(%d,%d,m=%d): %v", tt.n, tt.k, tt.m, err)
		}
		if got := a.Registers(); got != tt.want {
			t.Errorf("n=%d m=%d k=%d: Registers = %d, want %d", tt.n, tt.m, tt.k, got, tt.want)
		}
	}
}
