package core

import (
	"fmt"

	"setagreement/internal/shmem"
)

// ATuple is the (value, instance, history) tuple the anonymous algorithm of
// Figure 5 stores in snapshot components. Anonymity means no identifier
// field: identically-programmed processes may write identical tuples.
type ATuple struct {
	Val int
	T   int
	His History
}

// String renders the tuple as "(v,t,his)".
func (t ATuple) String() string {
	return fmt.Sprintf("(%d,t%d,%q)", t.Val, t.T, t.His.String())
}

// AnonRepeated is the anonymous m-obstruction-free repeated k-set agreement
// algorithm of Figure 5. It uses a snapshot object with
// r = (m+1)(n−k)+m² components plus one plain register H where fast
// processes publish their output histories, for a total of
// (m+1)(n−k)+m²+1 registers (Theorem 11).
//
// The pseudocode runs two threads per process: thread 1 executes the
// scan/update loop, thread 2 polls H so that processes starved by a
// non-blocking snapshot still terminate. This implementation interleaves
// them deterministically — one H poll per loop iteration, plus one per
// snapshot retry when a register-based non-blocking snapshot is used —
// which is one legal schedule of the two threads and preserves both safety
// (the paper's atomic line-pairs are trivially atomic in a single thread)
// and the starvation-freedom role of H.
type AnonRepeated struct {
	params Params
	r      int
	withH  bool
	root   History // the empty history every process starts from
}

var _ Algorithm = (*AnonRepeated)(nil)

// NewAnonRepeated builds the repeated anonymous algorithm (with H).
func NewAnonRepeated(p Params) (*AnonRepeated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &AnonRepeated{params: p, r: anonComponents(p), withH: true, root: NewHistory()}, nil
}

// NewAnonOneShot builds the one-shot variant. The paper remarks (end of
// Appendix B) that H is unnecessary for the one-shot case, saving one
// register: (m+1)(n−k)+m² in total.
func NewAnonOneShot(p Params) (*AnonRepeated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &AnonRepeated{params: p, r: anonComponents(p), withH: false, root: NewHistory()}, nil
}

// NewAnonComponents builds the algorithm with an explicit component count r
// (used by the Theorem 10 lower-bound experiments).
func NewAnonComponents(p Params, r int, withH bool) (*AnonRepeated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if r < 1 {
		return nil, fmt.Errorf("core: anonymous algorithm needs r ≥ 1 components, got %d", r)
	}
	return &AnonRepeated{params: p, r: r, withH: withH, root: NewHistory()}, nil
}

// anonComponents is (m+1)(n−k)+m², equivalently (m+1)(ℓ−1)+1.
func anonComponents(p Params) int {
	return (p.M+1)*(p.N-p.K) + p.M*p.M
}

// Name implements Algorithm.
func (a *AnonRepeated) Name() string {
	if a.withH {
		return "anonymous-fig5"
	}
	return "anonymous-fig5-oneshot"
}

// Params implements Algorithm.
func (a *AnonRepeated) Params() Params { return a.params }

// Components returns the snapshot component count r.
func (a *AnonRepeated) Components() int { return a.r }

// Spec implements Algorithm: register 0 is H (repeated variant only);
// snapshot object 0 has r components.
func (a *AnonRepeated) Spec() shmem.Spec {
	regs := 0
	if a.withH {
		regs = 1
	}
	return shmem.Spec{Regs: regs, Snaps: []int{a.r}}
}

// Registers implements Algorithm: (m+1)(n−k)+m²(+1) per Theorem 11.
func (a *AnonRepeated) Registers() int {
	if a.withH {
		return a.r + 1
	}
	return a.r
}

// Anonymous implements Algorithm.
func (a *AnonRepeated) Anonymous() bool { return true }

// NewProcess implements Algorithm. Anonymity: the id argument is ignored and
// never stored, so all processes are identically programmed.
func (a *AnonRepeated) NewProcess(int) Process {
	return &anonProc{alg: a, his: a.root}
}

// regH is the register index of H in the repeated variant's memory spec.
const regH = 0

type anonProc struct {
	alg *AnonRepeated
	i   int         // persistent component index
	t   int         // persistent instance counter
	his History     // persistent output history
	att anonAttempt // reused per Propose; no allocation per call
}

var _ Resumable = (*anonProc)(nil)

// Propose is the code of Figure 5 for one invocation: the synchronous
// driver over the resumable machine.
func (p *anonProc) Propose(mem shmem.Mem, v int) int {
	return drive(p.Begin(v), mem)
}

// Begin implements Resumable: lines 10-12 and 15 — t ← t+1, the history
// replay shortcut, pref ← v. The H write of line 9 is a shared-memory
// operation, so it belongs to the Attempt (its first Step), not to the
// process-local prelude; the operation order a sequential run issues is
// unchanged (H write first, before any replay return).
func (p *anonProc) Begin(v int) Attempt {
	p.t++
	p.att = anonAttempt{p: p, t: p.t, pref: v}
	if p.his.Len() >= p.t {
		p.att.out, p.att.done = p.his.At(p.t), true
	}
	return &p.att
}

// anonAttempt carries the loop-local state of Figure 5 across Steps.
type anonAttempt struct {
	p      *anonProc
	t      int
	pref   int
	wroteH bool
	out    int
	done   bool
}

// Step runs one iteration of the Figure 5 loop, after the one-time H write
// of line 9 (or replays the decision Begin already reached).
func (a *anonAttempt) Step(mem shmem.Mem) (int, bool) {
	p := a.p
	alg, t := p.alg, a.t
	if alg.withH && !a.wroteH {
		// line 9: write history into H.
		mem.Write(regH, p.his)
		a.wroteH = true
	}
	if a.done {
		return a.out, true
	}
	m := alg.params.M
	ell := alg.params.Ell() // line 16: ℓ ← n+m−k
	r := alg.r

	// Thread 2 (lines 32-36), interleaved once per iteration: if
	// |H| ≥ t, adopt its t-th value.
	if alg.withH {
		if w, ok := p.pollH(mem, t); ok {
			a.out, a.done = w, true
			return w, true
		}
	}

	// line 18: update ith component with (pref, t, history).
	mem.Update(0, p.i, ATuple{Val: a.pref, T: t, His: p.his})
	// line 19: s ← scan of A. Over a non-blocking snapshot substrate a
	// scan can starve; thread 2's H poll is interleaved between bounded
	// retry rounds, which is a legal schedule of the pseudocode's two
	// parallel threads and is what rescues starved processes (Appendix
	// B's final argument).
	s, rescued, w := p.scanInterleavingH(mem, t)
	if rescued {
		a.out, a.done = w, true
		return w, true
	}

	// lines 20-22: adopt the history of any process past t.
	for _, x := range s {
		if tu, ok := x.(ATuple); ok && tu.T > t {
			p.his = tu.His
			a.out, a.done = p.his.At(t), true
			return a.out, true
		}
	}

	// lines 23-26: decide on the most frequent value if at most m
	// distinct entries and every entry is a t-tuple.
	if allTTuples(s, t) && distinctAtMost(s, m) {
		w := mostFrequentValue(s)
		p.his = p.his.Append(w)
		a.out, a.done = w, true
		return w, true
	}

	// lines 27-28: if my preference appears in fewer than ℓ components
	// and some other value fills at least ℓ, adopt it.
	if countValT(s, a.pref, t) < ell {
		if nv, ok := dominantValue(s, t, ell); ok {
			a.pref = nv
		}
	}
	// line 29: advance i unconditionally.
	p.i = (p.i + 1) % r
	return 0, false
}

// pollH implements thread 2's body: if H holds a history covering instance
// t, adopt it and output its t-th value.
func (p *anonProc) pollH(mem shmem.Mem, t int) (int, bool) {
	if h, ok := mem.Read(regH).(History); ok && h.Len() >= t {
		w := h.At(t)
		p.his = p.his.Append(w)
		return w, true
	}
	return 0, false
}

// scanInterleavingH scans the snapshot; when the memory supports bounded
// scan attempts (a non-blocking substrate), it interleaves an H poll
// between attempts so a starved scanner still terminates once some fast
// process has published a long enough history. rescued=true means the H
// shortcut fired, with w the output.
func (p *anonProc) scanInterleavingH(mem shmem.Mem, t int) (s []shmem.Value, rescued bool, w int) {
	ts, bounded := mem.(shmem.TryScanner)
	if !bounded {
		return mem.Scan(0), false, 0
	}
	for {
		if view, ok := ts.TryScan(0, 4); ok {
			return view, false, 0
		}
		if p.alg.withH {
			if out, ok := p.pollH(mem, t); ok {
				return nil, true, out
			}
		}
	}
}

// allTTuples reports whether every entry of s is a tuple of instance exactly
// t (the decision precondition of line 23).
func allTTuples(s []shmem.Value, t int) bool {
	for _, x := range s {
		tu, ok := x.(ATuple)
		if !ok || tu.T != t {
			return false
		}
	}
	return true
}

// mostFrequentValue returns the value occurring in the most components,
// breaking ties by first occurrence so the choice is deterministic.
func mostFrequentValue(s []shmem.Value) int {
	counts := make(map[int]int, len(s))
	firstAt := make(map[int]int, len(s))
	for j, x := range s {
		tu := x.(ATuple)
		counts[tu.Val]++
		if _, seen := firstAt[tu.Val]; !seen {
			firstAt[tu.Val] = j
		}
	}
	best, bestCount, bestFirst := 0, -1, len(s)
	for val, c := range counts {
		if c > bestCount || (c == bestCount && firstAt[val] < bestFirst) {
			best, bestCount, bestFirst = val, c, firstAt[val]
		}
	}
	return best
}

// countValT counts components holding (val, t, *) — any history.
func countValT(s []shmem.Value, val, t int) int {
	n := 0
	for _, x := range s {
		if tu, ok := x.(ATuple); ok && tu.T == t && tu.Val == val {
			n++
		}
	}
	return n
}

// dominantValue returns a value held with instance t by at least ell
// components, if any, choosing the most frequent (ties by first occurrence).
func dominantValue(s []shmem.Value, t, ell int) (int, bool) {
	counts := make(map[int]int, len(s))
	firstAt := make(map[int]int, len(s))
	for j, x := range s {
		tu, ok := x.(ATuple)
		if !ok || tu.T != t {
			continue
		}
		counts[tu.Val]++
		if _, seen := firstAt[tu.Val]; !seen {
			firstAt[tu.Val] = j
		}
	}
	best, bestCount, bestFirst, found := 0, 0, len(s), false
	for val, c := range counts {
		if c < ell {
			continue
		}
		if !found || c > bestCount || (c == bestCount && firstAt[val] < bestFirst) {
			best, bestCount, bestFirst, found = val, c, firstAt[val], true
		}
	}
	return best, found
}
