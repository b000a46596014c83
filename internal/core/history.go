package core

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// History is the sequence of values a process has output in earlier
// instances of repeated set agreement. The register tuples of Figures 4 and
// 5 carry whole histories and the pseudocode compares whole tuples, so ==
// on a History must mean equal contents.
//
// A History points into a hash-consed trie (Filliâtre and Conchon,
// "Type-safe modular hash-consing", 2006): a node is one sequence, and its
// parent is that sequence without its last value. Append returns the one
// child of a node that holds a value, so within one trie equal sequences
// are one node and == compares contents. Histories grown from different
// roots never compare equal, so every process of one algorithm object
// starts from that object's root.
//
// A node's sequence never changes once published; only its child list
// grows. Each node carries a skew-binary jump pointer (Myers, "An
// applicative random-access stack", 1983), so Len is a field read and At
// costs O(log Len).
//
// The zero History belongs to no trie: it reads as empty (Len, Values,
// String) but cannot be appended to.
type History struct{ n *histNode }

// histNode is one sequence of a history trie. parent, jump, val and len are
// fixed when the node is built; child heads the list of its children, newest
// first, linked through sibling, which is set before the node is published
// and never changes afterwards. Six words: one 48-byte allocation per node.
type histNode struct {
	parent  *histNode
	jump    *histNode // skew-binary ancestor; the root jumps to itself
	val     int
	len     int
	child   atomic.Pointer[histNode]
	sibling *histNode
}

// NewHistory returns the empty history at the root of a fresh trie. Each
// algorithm object owns one root, and all its processes grow their
// histories from it.
func NewHistory() History {
	root := &histNode{}
	root.jump = root
	return History{root}
}

// HistoryOf builds the history holding vals on a fresh root of its own.
// The result never compares equal to a history grown from any other root,
// an algorithm object's included, so use it only where the values matter
// and never the identity, such as a corrupt tuple planted in a test.
func HistoryOf(vals ...int) History {
	h := NewHistory()
	for _, v := range vals {
		h = h.Append(v)
	}
	return h
}

// Len returns the number of values in the sequence.
func (h History) Len() int {
	if h.n == nil {
		return 0
	}
	return h.n.len
}

// At returns the t-th value, 1-based as in the paper. It panics if t is out
// of range; callers check Len first, exactly as the pseudocode does.
func (h History) At(t int) int {
	n, _ := h.seek(t)
	return n.val
}

// seek returns the node holding the t-th value, the ancestor of h of length
// t, and the number of nodes the search visited, h's own included. It takes
// a jump whenever the jump does not overshoot t.
func (h History) seek(t int) (*histNode, int) {
	if t < 1 || t > h.Len() {
		panic(fmt.Sprintf("core: history %q has no instance %d", h.String(), t))
	}
	n, visits := h.n, 1
	for n.len > t {
		if n.jump.len >= t {
			n = n.jump
		} else {
			n = n.parent
		}
		visits++
	}
	return n, visits
}

// Append returns the history extended with v: the one child of h that holds
// v, built if h has none yet. A new child is published by a CAS on h's child
// list; a racer that loses the CAS to a child holding v adopts that node.
// Append on the zero History panics.
func (h History) Append(v int) History {
	p := h.n
	if p == nil {
		panic("core: Append on the zero History; grow histories from a root")
	}
	head := p.child.Load()
	if c := findChild(head, nil, v); c != nil {
		return History{c}
	}
	c := &histNode{parent: p, jump: skewJump(p), val: v, len: p.len + 1}
	for {
		c.sibling = head
		if p.child.CompareAndSwap(head, c) {
			return History{c}
		}
		seen := head
		head = p.child.Load()
		if w := findChild(head, seen, v); w != nil {
			return History{w}
		}
	}
}

// findChild returns the node holding v in the child list from head up to,
// not including, stop.
func findChild(head, stop *histNode, v int) *histNode {
	for c := head; c != stop; c = c.sibling {
		if c.val == v {
			return c
		}
	}
	return nil
}

// skewJump returns the jump pointer of a new child of p. When p's jump
// spans as many levels as that node's own jump, the child jumps over both,
// as a skew-binary increment merges two equal trees; otherwise it jumps to
// p.
func skewJump(p *histNode) *histNode {
	if j := p.jump; p.len-j.len == j.len-j.jump.len {
		return j.jump
	}
	return p
}

// Values decodes the full sequence.
func (h History) Values() []int {
	if h.Len() == 0 {
		return nil
	}
	out := make([]int, h.n.len)
	for n := h.n; n.len > 0; n = n.parent {
		out[n.len-1] = n.val
	}
	return out
}

// String renders the sequence comma-separated, "5,-3,0", and the empty
// sequence as "".
func (h History) String() string {
	var b []byte
	for i, v := range h.Values() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}
