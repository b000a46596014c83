package scenario_test

// Batch-submission determinism: the engine-level counterpart of this
// package's world determinism properties. A batch submitted to a
// single-worker engine executes sequentially, so the decided value of
// every key is a pure function of the batch's within-key submission order
// — permuting ops across independent keys, or switching between the batch
// entry point and a ProposeAsync loop, must never change any decided
// value. The test sweeps seeded permutations and compares the full
// decision vector of each run against the canonical ordering's.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	sa "setagreement"
)

// decideBatch builds a fresh single-worker arena, submits one proposal per
// (key, proc) pair in the order given, and returns the decided value per
// key. loop selects a ProposeAsync loop over the batch entry point.
func decideBatch(t *testing.T, ops []sa.BatchOp[int], keys int, loop bool) []int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ar, err := sa.NewArena[int](4, 1, sa.WithObjectOptions(sa.WithEngine(1)))
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	futs := make([]*sa.Future[int], len(ops))
	if loop {
		for i, op := range ops {
			h, err := ar.Object(op.Key).Proc(op.Proc)
			if err != nil {
				t.Fatalf("Proc(%s, %d): %v", op.Key, op.Proc, err)
			}
			futs[i] = h.ProposeAsync(ctx, op.Value)
		}
	} else {
		b, err := ar.SubmitBatch(ctx, ops)
		if err != nil {
			t.Fatalf("SubmitBatch: %v", err)
		}
		for i := 0; i < b.Len(); i++ {
			futs[i] = b.Future(i)
		}
	}
	decided := make([]int, keys)
	for i := range decided {
		decided[i] = -1
	}
	for i, f := range futs {
		v, err := f.Value()
		if err != nil {
			t.Fatalf("op %d (%s/%d): %v", i, ops[i].Key, ops[i].Proc, err)
		}
		k := ops[i].Value / 10 // values are key*10+proc by construction
		if decided[k] != -1 && decided[k] != v {
			t.Fatalf("key %d decided both %d and %d in one run", k, decided[k], v)
		}
		decided[k] = v
	}
	return decided
}

// TestBatchSubmissionOrderDeterminism: for a fixed within-key order,
// every cross-key permutation of the batch — and the equivalent
// ProposeAsync loop — decides the same value per key on a single-worker
// engine. The batch is longer than three of SubmitBatch's 16-proposal
// chunks, so some key's contenders straddle a chunk boundary: the chunks
// reach the engine while earlier ones run, and must still start in op
// order.
func TestBatchSubmissionOrderDeterminism(t *testing.T) {
	const keys, procs = 20, 3
	canonical := make([]sa.BatchOp[int], 0, keys*procs)
	for k := 0; k < keys; k++ {
		for p := 0; p < procs; p++ {
			canonical = append(canonical, sa.BatchOp[int]{
				Key:   fmt.Sprintf("key-%d", k),
				Proc:  p,
				Value: k*10 + p,
			})
		}
	}
	want := decideBatch(t, canonical, keys, false)
	for k, v := range want {
		// Single worker, sequential drain: each key's first-submitted
		// contender runs solo and decides its own value.
		if v != k*10 {
			t.Fatalf("canonical run: key %d decided %d, want %d", k, v, k*10)
		}
	}

	// The ProposeAsync loop in the same order is decision-equivalent.
	if got := decideBatch(t, canonical, keys, true); !equal(got, want) {
		t.Fatalf("looped submission decided %v, batch decided %v", got, want)
	}

	// Seeded cross-key permutations: shuffle the keys' interleaving while
	// preserving each key's internal order, as a batch built from any
	// traversal of independent per-key work-lists would.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		perm := permuteAcrossKeys(rng, canonical, keys, procs)
		if got := decideBatch(t, perm, keys, false); !equal(got, want) {
			t.Fatalf("trial %d: permuted batch decided %v, want %v", trial, got, want)
		}
	}
}

// permuteAcrossKeys interleaves the per-key op queues in random order,
// preserving within-key order (a riffle of the keys' sequences).
func permuteAcrossKeys(rng *rand.Rand, ops []sa.BatchOp[int], keys, procs int) []sa.BatchOp[int] {
	next := make([]int, keys) // per-key cursor into its proc sequence
	out := make([]sa.BatchOp[int], 0, len(ops))
	remaining := len(ops)
	for remaining > 0 {
		k := rng.Intn(keys)
		if next[k] >= procs {
			continue
		}
		out = append(out, ops[k*procs+next[k]])
		next[k]++
		remaining--
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
