package core

import (
	"testing"

	"setagreement/internal/shmem"
)

func TestDistinctCount(t *testing.T) {
	tests := []struct {
		name string
		give []shmem.Value
		want int
	}{
		{name: "empty", give: nil, want: 0},
		{name: "all nil", give: []shmem.Value{nil, nil}, want: 1},
		{name: "mixed", give: []shmem.Value{Pair{1, 1}, Pair{1, 1}, Pair{2, 1}, nil}, want: 3},
		{name: "distinct", give: []shmem.Value{1, 2, 3}, want: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !distinctAtMost(tt.give, tt.want) {
				t.Fatalf("distinctAtMost(s, %d) = false, want true", tt.want)
			}
			if tt.want > 0 && distinctAtMost(tt.give, tt.want-1) {
				t.Fatalf("distinctAtMost(s, %d) = true, want false", tt.want-1)
			}
		})
	}
}

func TestMinDupIndex(t *testing.T) {
	tests := []struct {
		name      string
		give      []shmem.Value
		wantIdx   int
		wantFound bool
	}{
		{name: "no dup", give: []shmem.Value{1, 2, 3}, wantFound: false},
		{name: "nil not dup", give: []shmem.Value{nil, nil, 1}, wantFound: false},
		{name: "simple", give: []shmem.Value{7, 8, 7}, wantIdx: 0, wantFound: true},
		{name: "min of two dups", give: []shmem.Value{9, 8, 8, 9}, wantIdx: 0, wantFound: true},
		{name: "later dup", give: []shmem.Value{1, 8, 8}, wantIdx: 1, wantFound: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			idx, found := minDupIndex(tt.give)
			if found != tt.wantFound || (found && idx != tt.wantIdx) {
				t.Fatalf("minDupIndex = %d,%v want %d,%v", idx, found, tt.wantIdx, tt.wantFound)
			}
		})
	}
}

func TestMinDupIndexWhere(t *testing.T) {
	s := []shmem.Value{
		RTuple{Val: 1, ID: 1, T: 1},
		RTuple{Val: 1, ID: 1, T: 1},
		RTuple{Val: 2, ID: 2, T: 2},
		RTuple{Val: 2, ID: 2, T: 2},
	}
	isT2 := func(v shmem.Value) bool { return v.(RTuple).T == 2 }
	idx, found := minDupIndexWhere(s, isT2)
	if !found || idx != 2 {
		t.Fatalf("minDupIndexWhere = %d,%v want 2,true", idx, found)
	}
	isT3 := func(v shmem.Value) bool { return v.(RTuple).T == 3 }
	if _, found := minDupIndexWhere(s, isT3); found {
		t.Fatal("found duplicate where predicate excludes all")
	}
}

func TestAllOthersForeign(t *testing.T) {
	mine := Pair{Val: 5, ID: 3}
	tests := []struct {
		name string
		give []shmem.Value
		i    int
		want bool
	}{
		{name: "all foreign", give: []shmem.Value{Pair{1, 1}, mine, Pair{2, 2}}, i: 1, want: true},
		{name: "nil elsewhere", give: []shmem.Value{nil, mine, Pair{2, 2}}, i: 1, want: false},
		{name: "mine elsewhere", give: []shmem.Value{mine, mine, Pair{2, 2}}, i: 1, want: false},
		{name: "own slot ignored", give: []shmem.Value{Pair{1, 1}, nil, Pair{2, 2}}, i: 1, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := allOthersForeign(tt.give, tt.i, mine); got != tt.want {
				t.Fatalf("allOthersForeign = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestHasNil(t *testing.T) {
	if hasNil([]shmem.Value{1, 2}) {
		t.Fatal("hasNil on full scan")
	}
	if !hasNil([]shmem.Value{1, nil}) {
		t.Fatal("hasNil missed nil")
	}
}

// scanCases generates scans exercising the pairwise fast paths against the
// map fallbacks: all-⊥, all-equal, all-distinct, and pseudo-random mixes
// with duplicates at assorted positions, at sizes on both sides of
// smallScanMax.
func scanCases() [][]shmem.Value {
	sizes := []int{0, 1, 2, 7, smallScanMax, smallScanMax + 1, 100}
	var cases [][]shmem.Value
	for _, n := range sizes {
		allNil := make([]shmem.Value, n)
		cases = append(cases, allNil)
		same := make([]shmem.Value, n)
		distinct := make([]shmem.Value, n)
		mixed := make([]shmem.Value, n)
		for i := range same {
			same[i] = Pair{Val: 1, ID: 1}
			distinct[i] = Pair{Val: i, ID: i}
			// Deterministic mix: duplicates every third slot, ⊥ every
			// seventh, ids folded to force collisions.
			switch {
			case i%7 == 3:
				mixed[i] = nil
			case i%3 == 0:
				mixed[i] = RTuple{Val: i % 5, ID: i % 4, T: i % 2}
			default:
				mixed[i] = Pair{Val: i % 6, ID: i % 3}
			}
		}
		cases = append(cases, same, distinct, mixed)
	}
	return cases
}

// TestScanHelpersMatchMapVersions holds the allocation-free pairwise paths
// to the original map-based implementations over generated scans.
func TestScanHelpersMatchMapVersions(t *testing.T) {
	pred := func(v shmem.Value) bool {
		p, ok := v.(Pair)
		return ok && p.Val%2 == 0
	}
	for ci, s := range scanCases() {
		for m := 0; m <= len(s); m++ {
			if got, want := distinctAtMost(s, m), distinctCountMap(s) <= m; got != want {
				t.Errorf("case %d (len %d): distinctAtMost(s, %d) = %v, map version = %v", ci, len(s), m, got, want)
			}
		}
		gi, gok := minDupIndex(s)
		wi, wok := minDupIndexMap(s)
		if gok != wok || (gok && gi != wi) {
			t.Errorf("case %d (len %d): minDupIndex = %d,%v, map version = %d,%v", ci, len(s), gi, gok, wi, wok)
		}
		gi, gok = minDupIndexWhere(s, pred)
		wi, wok = minDupIndexWhereMap(s, pred)
		if gok != wok || (gok && gi != wi) {
			t.Errorf("case %d (len %d): minDupIndexWhere = %d,%v, map version = %d,%v", ci, len(s), gi, gok, wi, wok)
		}
	}
}

// TestScanHelpersSmallNoAlloc pins the satellite's goal: at realistic r the
// helpers allocate nothing.
func TestScanHelpersSmallNoAlloc(t *testing.T) {
	s := []shmem.Value{Pair{1, 1}, Pair{2, 2}, Pair{1, 1}, nil, Pair{3, 1}}
	pred := func(v shmem.Value) bool { _, ok := v.(Pair); return ok }
	if n := testing.AllocsPerRun(100, func() {
		distinctAtMost(s, 2)
		hasNil(s)
		minDupIndex(s)
		minDupIndexWhere(s, pred)
		allOthersForeign(s, 1, Pair{1, 1})
	}); n != 0 {
		t.Fatalf("scan helpers allocate %v per run at r=5, want 0", n)
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    Params
		wantErr bool
	}{
		{name: "consensus 3", give: Params{N: 3, M: 1, K: 1}},
		{name: "full range", give: Params{N: 10, M: 3, K: 7}},
		{name: "m exceeds k", give: Params{N: 5, M: 3, K: 2}, wantErr: true},
		{name: "k not below n", give: Params{N: 4, M: 1, K: 4}, wantErr: true},
		{name: "m zero", give: Params{N: 4, M: 0, K: 1}, wantErr: true},
		{name: "one process", give: Params{N: 1, M: 1, K: 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate(%v) err = %v, wantErr %v", tt.give, err, tt.wantErr)
			}
		})
	}
}

func TestEll(t *testing.T) {
	p := Params{N: 10, M: 2, K: 5}
	if got := p.Ell(); got != 7 {
		t.Fatalf("Ell = %d, want 7", got)
	}
}
