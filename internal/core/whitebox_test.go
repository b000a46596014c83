package core

import (
	"testing"

	"setagreement/internal/shmem"
)

// scriptedMem feeds an algorithm canned scan results and records its
// updates, isolating single pseudocode branches from whole executions.
type scriptedMem struct {
	t       *testing.T
	scans   [][]shmem.Value
	next    int
	updates []struct {
		comp int
		val  shmem.Value
	}
	regs map[int]shmem.Value
	// readOverride pins Read results regardless of writes (models other
	// processes re-publishing a register, e.g. the H register of Fig 5).
	readOverride map[int]shmem.Value
}

var _ shmem.Mem = (*scriptedMem)(nil)

func newScriptedMem(t *testing.T, scans ...[]shmem.Value) *scriptedMem {
	return &scriptedMem{t: t, scans: scans, regs: make(map[int]shmem.Value)}
}

func (m *scriptedMem) Read(reg int) shmem.Value {
	if v, ok := m.readOverride[reg]; ok {
		return v
	}
	return m.regs[reg]
}

func (m *scriptedMem) Write(reg int, v shmem.Value) { m.regs[reg] = v }

func (m *scriptedMem) Update(snap, comp int, v shmem.Value) {
	if snap != 0 {
		m.t.Fatalf("unexpected snapshot %d", snap)
	}
	m.updates = append(m.updates, struct {
		comp int
		val  shmem.Value
	}{comp, v})
}

func (m *scriptedMem) Scan(int) []shmem.Value {
	if m.next >= len(m.scans) {
		m.t.Fatal("algorithm scanned more often than scripted")
	}
	s := m.scans[m.next]
	m.next++
	return s
}

// pairs builds a scan vector of Pair values; nil entries stay ⊥.
func pairs(ps ...any) []shmem.Value {
	out := make([]shmem.Value, len(ps))
	for i, p := range ps {
		if p != nil {
			out[i] = p
		}
	}
	return out
}

func TestOneShotDecidesFirstDuplicatedValue(t *testing.T) {
	// Figure 3 lines 9-10: no ⊥, ≤ m distinct pairs → output the value
	// of the smallest duplicated index.
	p := Params{N: 4, M: 2, K: 3}
	alg, err := NewOneShot(p) // r = 4+4-3 = 5
	if err != nil {
		t.Fatalf("NewOneShot: %v", err)
	}
	mem := newScriptedMem(t,
		pairs(Pair{9, 8}, Pair{5, 7}, Pair{9, 8}, Pair{5, 7}, Pair{5, 7}),
	)
	got := alg.NewProcess(0).Propose(mem, 1)
	if got != 9 { // min duplicated index is 0 (Pair{9,8} at 0 and 2)
		t.Fatalf("decided %d, want 9", got)
	}
	if len(mem.updates) != 1 || mem.updates[0].comp != 0 {
		t.Fatalf("updates = %v", mem.updates)
	}
}

func TestOneShotAdoptsDuplicatedValueWithoutAdvancing(t *testing.T) {
	// Figure 3 lines 11-13: my pair appears only at my position, another
	// pair is duplicated → adopt its value and stay at component i.
	p := Params{N: 3, M: 2, K: 2} // r = 5
	alg, err := NewOneShot(p)
	if err != nil {
		t.Fatalf("NewOneShot: %v", err)
	}
	mine := Pair{1, 0}
	mem := newScriptedMem(t,
		// Scan 1: 3 distinct pairs > m, my pair only at i=0, (7,2)
		// duplicated first → adopt 7, stay at i=0.
		pairs(mine, Pair{7, 2}, Pair{7, 2}, Pair{9, 1}, Pair{9, 1}),
		// Scan 2 (after re-updating i=0 with pref 7): 2 distinct ≤ m
		// → decide the first duplicated value, 7.
		pairs(Pair{7, 0}, Pair{7, 2}, Pair{7, 2}, Pair{7, 2}, Pair{7, 2}),
	)
	got := alg.NewProcess(0).Propose(mem, 1)
	if got != 7 {
		t.Fatalf("decided %d, want 7", got)
	}
	if len(mem.updates) != 2 {
		t.Fatalf("update count = %d, want 2", len(mem.updates))
	}
	if mem.updates[1].comp != 0 {
		t.Fatalf("adoption advanced i: second update at %d", mem.updates[1].comp)
	}
	if mem.updates[1].val != (Pair{7, 0}) {
		t.Fatalf("second update = %v, want adopted pref", mem.updates[1].val)
	}
}

func TestOneShotAdvanceWhenDuplicateCarriesOwnPref(t *testing.T) {
	// The Lemma 5 dichotomy regression test: the duplicated pair carries
	// the value I already prefer (under another id) — adopting would
	// change nothing, so the iteration must advance i instead of
	// spinning at i forever.
	p := Params{N: 4, M: 1, K: 3} // r = 3
	alg, err := NewOneShot(p)
	if err != nil {
		t.Fatalf("NewOneShot: %v", err)
	}
	mem := newScriptedMem(t,
		// pref is 7; the duplicate is (7, id=2): same value.
		pairs(Pair{7, 0}, Pair{7, 2}, Pair{7, 2}),
		// i advanced to 1; after update the memory converges.
		pairs(Pair{7, 0}, Pair{7, 0}, Pair{7, 2}),
		pairs(Pair{7, 0}, Pair{7, 0}, Pair{7, 0}),
	)
	got := alg.NewProcess(0).Propose(mem, 7)
	if got != 7 {
		t.Fatalf("decided %d, want 7", got)
	}
	if mem.updates[1].comp != 1 {
		t.Fatalf("i did not advance after same-value duplicate: updates %v", mem.updates)
	}
}

func TestOneShotNoDecisionWhileBottomPresent(t *testing.T) {
	// ⊥ anywhere blocks the decision even with one distinct pair.
	p := Params{N: 4, M: 1, K: 3}
	alg, err := NewOneShot(p)
	if err != nil {
		t.Fatalf("NewOneShot: %v", err)
	}
	mem := newScriptedMem(t,
		pairs(Pair{1, 0}, Pair{1, 0}, nil),        // ⊥ at 2: no decision, advance
		pairs(Pair{1, 0}, Pair{1, 0}, nil),        // still ⊥ (scripted), advance to 2
		pairs(Pair{1, 0}, Pair{1, 0}, Pair{1, 0}), // decide
	)
	got := alg.NewProcess(0).Propose(mem, 1)
	if got != 1 {
		t.Fatalf("decided %d, want 1", got)
	}
	if len(mem.updates) != 3 || mem.updates[1].comp != 1 || mem.updates[2].comp != 2 {
		t.Fatalf("updates = %v, want advance through components", mem.updates)
	}
}

func TestRepeatedShortcutAdoptsHigherInstanceHistory(t *testing.T) {
	// Figure 4 lines 15-16: a tuple from instance t' > t short-circuits
	// the whole loop; the process adopts that history and outputs its
	// t-th value.
	p := Params{N: 3, M: 1, K: 1} // r = 4
	alg, err := NewRepeated(p)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	his := alg.root.Append(42).Append(43)
	mem := newScriptedMem(t,
		pairs(RTuple{Val: 99, ID: 2, T: 3, His: his}, nil, nil, nil),
	)
	proc := alg.NewProcess(0)
	if got := proc.Propose(mem, 1); got != 42 {
		t.Fatalf("instance 1 decided %d, want 42 from adopted history", got)
	}
	// Instance 2 replays the adopted history without shared memory.
	mem2 := newScriptedMem(t)
	if got := proc.Propose(mem2, 5); got != 43 {
		t.Fatalf("instance 2 decided %d, want 43", got)
	}
	if len(mem2.updates) != 0 || mem2.next != 0 {
		t.Fatal("history replay touched shared memory")
	}
}

func TestRepeatedStaleTupleBlocksDecision(t *testing.T) {
	// Figure 4 line 17: a t' < t tuple anywhere forbids deciding even if
	// everything else matches.
	p := Params{N: 3, M: 1, K: 1} // r = 4
	alg, err := NewRepeated(p)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	proc := alg.NewProcess(0)
	stale := RTuple{Val: 9, ID: 2, T: 1, His: alg.root}
	// First Propose: decide instance 1 normally (all own tuples).
	own := RTuple{Val: 5, ID: 0, T: 1, His: alg.root}
	mem1 := newScriptedMem(t,
		pairs(own, nil, nil, nil),
		pairs(own, own, nil, nil),
		pairs(own, own, own, nil),
		pairs(own, own, own, own),
	)
	if got := proc.Propose(mem1, 5); got != 5 {
		t.Fatalf("instance 1 decided %d", got)
	}
	// Second Propose: one stale t=1 tuple blocks; once it is gone,
	// decide.
	t2 := RTuple{Val: 7, ID: 0, T: 2, His: alg.root.Append(5)}
	mem2 := newScriptedMem(t,
		pairs(t2, t2, t2, stale), // stale blocks → advance
		pairs(t2, t2, t2, t2),    // clean → decide
	)
	if got := proc.Propose(mem2, 7); got != 7 {
		t.Fatalf("instance 2 decided %d, want 7", got)
	}
	if len(mem2.updates) != 2 {
		t.Fatalf("updates = %v, want block-then-decide", mem2.updates)
	}
}

func TestAnonymousHelpers(t *testing.T) {
	root := NewHistory()
	h1, h2 := root.Append(1), root.Append(2)
	s := []shmem.Value{
		ATuple{Val: 5, T: 2, His: h1},
		ATuple{Val: 5, T: 2, His: h2}, // same value, different history
		ATuple{Val: 9, T: 2, His: h1},
		ATuple{Val: 5, T: 2, His: h1},
	}
	if !allTTuples(s, 2) || allTTuples(s, 1) {
		t.Fatal("allTTuples misclassified")
	}
	if got := mostFrequentValue(s); got != 5 {
		t.Fatalf("mostFrequentValue = %d, want 5", got)
	}
	if got := countValT(s, 5, 2); got != 3 {
		t.Fatalf("countValT = %d, want 3", got)
	}
	if got := countValT(s, 5, 1); got != 0 {
		t.Fatalf("countValT wrong instance = %d", got)
	}
	if v, ok := dominantValue(s, 2, 3); !ok || v != 5 {
		t.Fatalf("dominantValue = %d,%v want 5,true", v, ok)
	}
	if _, ok := dominantValue(s, 2, 4); ok {
		t.Fatal("dominantValue found a value above its count")
	}
	// Tie break by first occurrence.
	tie := []shmem.Value{
		ATuple{Val: 9, T: 1}, ATuple{Val: 5, T: 1},
		ATuple{Val: 5, T: 1}, ATuple{Val: 9, T: 1},
	}
	if got := mostFrequentValue(tie); got != 9 {
		t.Fatalf("tie break = %d, want first-seen 9", got)
	}
}

func TestAnonymousAdoptsDominantValue(t *testing.T) {
	// Figure 5 lines 27-28: pref held by < ℓ components, another value by
	// ≥ ℓ → adopt; i advances every iteration regardless.
	p := Params{N: 4, M: 1, K: 2} // ℓ = 3, r = 2*2+1 = 5
	alg, err := NewAnonOneShot(p)
	if err != nil {
		t.Fatalf("NewAnonOneShot: %v", err)
	}
	other := ATuple{Val: 7, T: 1, His: alg.root}
	mem := newScriptedMem(t,
		// 4 copies of 7 (≥ ℓ=3), my 1 appears once (< ℓ) → adopt 7.
		pairs(ATuple{Val: 1, T: 1, His: alg.root}, other, other, other, other),
		// Now everything is 7-tuples: 1 distinct ≤ m → decide 7.
		pairs(other, other, other, other, other),
	)
	got := alg.NewProcess(-1).Propose(mem, 1)
	if got != 7 {
		t.Fatalf("decided %d, want 7", got)
	}
	if mem.updates[1].comp != 1 {
		t.Fatalf("i did not advance: updates %v", mem.updates)
	}
	if mem.updates[1].val != (ATuple{Val: 7, T: 1, His: alg.root}) {
		t.Fatalf("second update %v, want adopted pref 7", mem.updates[1].val)
	}
}

func TestAnonymousHRegisterShortcut(t *testing.T) {
	// Figure 5 thread 2: |H| ≥ t lets a process adopt H's t-th value
	// without touching the snapshot.
	p := Params{N: 4, M: 1, K: 2}
	alg, err := NewAnonRepeated(p)
	if err != nil {
		t.Fatalf("NewAnonRepeated: %v", err)
	}
	mem := newScriptedMem(t) // any Scan call would fail the test
	// H is kept at a long history by (modeled) fast processes, surviving
	// this process's own line-9 writes.
	mem.readOverride = map[int]shmem.Value{0: alg.root.Append(11).Append(12)}
	proc := alg.NewProcess(-1)
	if got := proc.Propose(mem, 1); got != 11 {
		t.Fatalf("instance 1 decided %d, want 11 from H", got)
	}
	if got := proc.Propose(mem, 2); got != 12 {
		t.Fatalf("instance 2 decided %d, want 12 from H", got)
	}
	if len(mem.updates) != 0 {
		t.Fatal("H shortcut touched the snapshot")
	}
	// The process published its (empty, then grown) history to H at the
	// start of each Propose... the second Propose wrote its length-1
	// history over H? No: it wrote before reading H — check the write
	// protocol happened (register 0 written twice).
	if mem.regs[0] == nil {
		t.Fatal("H was never written")
	}
}
