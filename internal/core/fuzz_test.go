package core

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"setagreement/internal/shmem"
)

// FuzzHistoryAppendAt drives one trie with a compact op string and checks
// every history it produced against a [][]int oracle. Each byte is one op:
// a digit appends that digit, 'v' appends the fuzzed value v, and any other
// byte c goes back to the prefix of length int(c) mod (len+1) of the current
// history. So "12a1" appends 1 and 2, goes back to the prefix of length
// 'a' mod 3 = 1 and appends 1 again.
func FuzzHistoryAppendAt(f *testing.F) {
	f.Add("0121a0v12~2", -5)
	f.Add("vvv~v1v", 1<<30)
	f.Fuzz(func(t *testing.T, ops string, v int) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		path := []History{NewHistory()} // path[j] holds cur[:j]
		var cur []int
		var hs []History
		var oracle [][]int
		for i := 0; i < len(ops); i++ {
			c := ops[i]
			if c != 'v' && (c < '0' || c > '9') {
				keep := int(c) % len(path)
				path, cur = path[:keep+1], cur[:keep]
				continue
			}
			val := v
			if c != 'v' {
				val = int(c - '0')
			}
			path = append(path, path[len(path)-1].Append(val))
			cur = append(cur, val)
			hs, oracle = append(hs, path[len(path)-1]), append(oracle, slices.Clone(cur))
		}
		for i, h := range hs {
			want := oracle[i]
			if h.Len() != len(want) {
				t.Fatalf("history %d: Len = %d, want %d", i, h.Len(), len(want))
			}
			got := h.Values()
			strs := make([]string, len(want))
			for j, w := range want {
				if got[j] != w || h.At(j+1) != w {
					t.Fatalf("history %d entry %d: Values %d, At %d, want %d", i, j, got[j], h.At(j+1), w)
				}
				strs[j] = strconv.Itoa(w)
			}
			if s := h.String(); s != strings.Join(strs, ",") {
				t.Fatalf("history %d: String = %q, want %q", i, s, strings.Join(strs, ","))
			}
			for j, h2 := range hs[:i] {
				if (h == h2) != slices.Equal(want, oracle[j]) {
					t.Fatalf("histories %d and %d: == is %v for %v and %v", i, j, h == h2, want, oracle[j])
				}
			}
		}
	})
}

// FuzzScanHelpers: the scan helpers never panic and satisfy their basic
// contracts on arbitrary pair vectors.
func FuzzScanHelpers(f *testing.F) {
	f.Add(3, 1, 2, 1, 7, 7)
	f.Add(0, 0, 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, n, v1, id1, v2, id2, i int) {
		size := ((n%6)+6)%6 + 2
		vec := make([]shmem.Value, size)
		for j := range vec {
			switch j % 3 {
			case 0:
				vec[j] = Pair{Val: v1, ID: id1}
			case 1:
				vec[j] = Pair{Val: v2, ID: id2}
			}
		}
		if distinctAtMost(vec, 0) || !distinctAtMost(vec, size) {
			t.Fatalf("distinctAtMost puts %d distinct entries outside [1, %d]", distinctCountMap(vec), size)
		}
		if j, ok := minDupIndex(vec); ok {
			if vec[j] == nil {
				t.Fatal("duplicate index points at ⊥")
			}
			found := false
			for j2 := j + 1; j2 < size; j2++ {
				if vec[j2] == vec[j] {
					found = true
				}
			}
			if !found {
				t.Fatalf("index %d not actually duplicated", j)
			}
		}
		idx := ((i % size) + size) % size
		mine := vec[idx]
		if mine == nil {
			mine = Pair{Val: v1, ID: 99}
		}
		_ = allOthersForeign(vec, idx, mine)
	})
}
