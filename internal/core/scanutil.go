package core

import "setagreement/internal/shmem"

// Helpers for analyzing scan results, shared by the three algorithms. All of
// them treat nil as the paper's ⊥.
//
// The scans these helpers see are r = n+2m−k components — a handful in any
// realistic configuration — so up to smallScanMax entries they run pairwise
// comparison loops: no map, no hashing of interface values, no allocation
// on the Propose hot path. Beyond that (only reachable through the
// experimental NewOneShotComponents/NewRepeatedComponents constructors) they
// fall back to the original map-based forms, which the equivalence tests in
// scanutil_test.go hold them to.

// smallScanMax bounds the pairwise paths: r² stays at most 4096 cheap
// interface comparisons, well below the constant cost of building a map.
const smallScanMax = 64

// distinctAtMost reports |{s[j] : 0 ≤ j < r}| ≤ m, counting ⊥ as one entry
// if present (the pseudocode's set includes whatever the components hold).
// It stops at the (m+1)-th distinct entry, so a scan that fails the test
// costs only the comparisons up to there.
func distinctAtMost(s []shmem.Value, m int) bool {
	if len(s) > smallScanMax {
		return distinctCountMap(s) <= m
	}
	n := 0
	for j, v := range s {
		seen := false
		for i := 0; i < j; i++ {
			if s[i] == v {
				seen = true
				break
			}
		}
		if !seen {
			if n++; n > m {
				return false
			}
		}
	}
	return true
}

func distinctCountMap(s []shmem.Value) int {
	seen := make(map[shmem.Value]bool, len(s))
	for _, v := range s {
		seen[v] = true
	}
	return len(seen)
}

// hasNil reports whether any component is ⊥. (Already allocation-free for
// every r; listed here for completeness of the scan-analysis surface.)
func hasNil(s []shmem.Value) bool {
	for _, v := range s {
		if v == nil {
			return true
		}
	}
	return false
}

// minDupIndex returns the smallest j1 such that some j2 > j1 has
// s[j1] == s[j2] with s[j1] ≠ ⊥, and whether one exists.
func minDupIndex(s []shmem.Value) (int, bool) {
	if len(s) > smallScanMax {
		return minDupIndexMap(s)
	}
	for j1, v := range s {
		if v == nil {
			continue
		}
		for j2 := j1 + 1; j2 < len(s); j2++ {
			if s[j2] == v {
				return j1, true
			}
		}
	}
	return 0, false
}

func minDupIndexMap(s []shmem.Value) (int, bool) {
	first := make(map[shmem.Value]int, len(s))
	best, found := 0, false
	for j, v := range s {
		if v == nil {
			continue
		}
		if f, ok := first[v]; ok {
			if !found || f < best {
				best, found = f, true
			}
			continue
		}
		first[v] = j
	}
	return best, found
}

// minDupIndexWhere is minDupIndex restricted to entries satisfying pred.
// (Equal entries agree on pred, so testing the first occurrence suffices.)
func minDupIndexWhere(s []shmem.Value, pred func(shmem.Value) bool) (int, bool) {
	if len(s) > smallScanMax {
		return minDupIndexWhereMap(s, pred)
	}
	for j1, v := range s {
		if v == nil || !pred(v) {
			continue
		}
		for j2 := j1 + 1; j2 < len(s); j2++ {
			if s[j2] == v {
				return j1, true
			}
		}
	}
	return 0, false
}

func minDupIndexWhereMap(s []shmem.Value, pred func(shmem.Value) bool) (int, bool) {
	first := make(map[shmem.Value]int, len(s))
	best, found := 0, false
	for j, v := range s {
		if v == nil || !pred(v) {
			continue
		}
		if f, ok := first[v]; ok {
			if !found || f < best {
				best, found = f, true
			}
			continue
		}
		first[v] = j
	}
	return best, found
}

// allOthersForeign reports the pseudocode condition
// "∀j ≠ i, s[j] ∉ {⊥, mine}": every component other than i is a non-⊥ value
// different from mine.
func allOthersForeign(s []shmem.Value, i int, mine shmem.Value) bool {
	for j, v := range s {
		if j == i {
			continue
		}
		if v == nil || v == mine {
			return false
		}
	}
	return true
}
