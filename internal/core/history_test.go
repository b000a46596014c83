package core

import (
	"math/bits"
	"sync"
	"testing"
)

func TestHistoryBasics(t *testing.T) {
	h := NewHistory()
	if h.Len() != 0 {
		t.Fatalf("empty history Len = %d, want 0", h.Len())
	}
	h = h.Append(5)
	h = h.Append(-3)
	h = h.Append(0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	tests := []struct {
		give int
		want int
	}{
		{give: 1, want: 5},
		{give: 2, want: -3},
		{give: 3, want: 0},
	}
	for _, tt := range tests {
		if got := h.At(tt.give); got != tt.want {
			t.Errorf("At(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
	vals := h.Values()
	if len(vals) != 3 || vals[0] != 5 || vals[1] != -3 || vals[2] != 0 {
		t.Fatalf("Values = %v", vals)
	}
	if got := h.String(); got != "5,-3,0" {
		t.Fatalf("String = %q, want the comma form", got)
	}
}

func TestHistoryZeroReadsEmpty(t *testing.T) {
	var h History
	if h.Len() != 0 || h.Values() != nil || h.String() != "" {
		t.Fatalf("zero History reads Len %d, Values %v, String %q", h.Len(), h.Values(), h.String())
	}
	if NewHistory().String() != "" {
		t.Fatal("a root does not render empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append on the zero History did not panic")
		}
	}()
	h.Append(1)
}

func TestHistoryOf(t *testing.T) {
	h := HistoryOf(1, 2, 3)
	if h.Len() != 3 || h.At(2) != 2 {
		t.Fatalf("HistoryOf = %q", h)
	}
	if HistoryOf().Len() != 0 {
		t.Fatal("HistoryOf() not empty")
	}
	// Each call grows a root of its own, so equal contents still differ.
	if HistoryOf(1) == HistoryOf(1) {
		t.Fatal("histories from two roots compare equal")
	}
}

func TestHistoryComparable(t *testing.T) {
	root := NewHistory()
	a := root.Append(1).Append(2)
	b := root.Append(1).Append(2)
	if a != b {
		t.Fatalf("equal histories compare unequal: %q vs %q", a, b)
	}
	if root.Append(12) == a || root.Append(2).Append(1) == a {
		t.Fatal("distinct histories compare equal")
	}
}

func TestHistoryAtPanicsOutOfRange(t *testing.T) {
	for _, give := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) out of range did not panic", give)
				}
			}()
			NewHistory().Append(1).At(give)
		}()
	}
}

// TestHistoryAppendAllocs: building a node costs exactly one allocation,
// and appending a value the node already has costs none.
func TestHistoryAppendAllocs(t *testing.T) {
	h := NewHistory()
	if n := testing.AllocsPerRun(100, func() { h = h.Append(7) }); n != 1 {
		t.Fatalf("new node allocates %.0f, want 1", n)
	}
	root := h
	root.Append(3)
	if n := testing.AllocsPerRun(100, func() { root.Append(3) }); n != 0 {
		t.Fatalf("existing node allocates %.0f, want 0", n)
	}
}

// TestHistoryAtIsLogarithmic counts, rather than times, the nodes At visits:
// on a 2^16-deep history every instance is at most 3⌈log₂ len⌉+2 nodes
// away, where a parent walk would visit up to len.
func TestHistoryAtIsLogarithmic(t *testing.T) {
	const depth = 1 << 16
	h := NewHistory()
	for i := 0; i < depth; i++ {
		h = h.Append(i)
	}
	limit := 3*bits.Len(uint(depth-1)) + 2
	worst := 0
	for at := 1; at <= depth; at++ {
		n, visits := h.seek(at)
		if n.val != at-1 {
			t.Fatalf("At(%d) = %d, want %d", at, n.val, at-1)
		}
		worst = max(worst, visits)
	}
	if worst > limit {
		t.Fatalf("At visits up to %d nodes on a %d-deep history, limit %d", worst, depth, limit)
	}
	t.Logf("worst At visits %d nodes (limit %d)", worst, limit)
}

// TestHistoryAppendConcurrent: goroutines racing to append along shared
// prefixes of one root still hash-cons — equal contents are one node, and
// no node has two children with the same value.
func TestHistoryAppendConcurrent(t *testing.T) {
	const (
		workers = 8
		steps   = 2000
	)
	root := NewHistory()
	results := make([][]History, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A fixed LCG per goroutine: the paths overlap heavily (three
			// values, frequent returns to short prefixes) so the workers
			// keep racing for the same children.
			x := uint32(w)*2654435761 + 1
			path := []History{root}
			for i := 0; i < steps; i++ {
				x = x*1664525 + 1013904223
				if x>>28 == 0 {
					path = path[:1+int(x>>8)%len(path)]
				}
				h := path[len(path)-1].Append(int(x>>16) % 3)
				path = append(path, h)
				results[w] = append(results[w], h)
			}
		}(w)
	}
	wg.Wait()

	byContent := make(map[string]History)
	for _, rs := range results {
		for _, h := range rs {
			key := h.String()
			if prev, ok := byContent[key]; ok && prev != h {
				t.Fatalf("two nodes hold %q", key)
			}
			byContent[key] = h
		}
	}
	var walk func(n *histNode)
	walk = func(n *histNode) {
		seen := make(map[int]bool)
		for c := n.child.Load(); c != nil; c = c.sibling {
			if seen[c.val] {
				t.Fatalf("node %q has two children holding %d", History{n}, c.val)
			}
			seen[c.val] = true
			if c.parent != n || c.len != n.len+1 {
				t.Fatalf("child %q of %q is mislinked", History{c}, History{n})
			}
			walk(c)
		}
	}
	walk(root.n)
}
