package core

import (
	"fmt"

	"setagreement/internal/shmem"
)

// Pair is the (value, identifier) pair the one-shot algorithm of Figure 3
// stores in snapshot components.
type Pair struct {
	Val int
	ID  int
}

// String renders the pair as "(v,id)".
func (p Pair) String() string { return fmt.Sprintf("(%d,p%d)", p.Val, p.ID) }

// OneShot is the m-obstruction-free one-shot k-set agreement algorithm of
// Figure 3. It uses one snapshot object with r = n+2m−k components; by
// Theorem 7 this costs min(n+2m−k, n) registers once the snapshot is
// implemented from registers.
type OneShot struct {
	params Params
	r      int
	snaps  [1]int // Spec's component counts, {r}: built once, shared
}

var _ Algorithm = (*OneShot)(nil)

// NewOneShot builds the algorithm for the given parameters.
func NewOneShot(p Params) (*OneShot, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newOneShot(p, p.N+2*p.M-p.K), nil
}

// NewOneShotComponents builds the algorithm with an explicit component count
// r instead of the paper's n+2m−k. Larger r preserves correctness (the
// pigeonhole argument of Lemma 4 only needs r ≥ n+2m−k); smaller r is used
// by the lower-bound experiments to exhibit failures. It returns an error
// only for non-positive r.
func NewOneShotComponents(p Params, r int) (*OneShot, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if r < 1 {
		return nil, fmt.Errorf("core: one-shot needs r ≥ 1 components, got %d", r)
	}
	return newOneShot(p, r), nil
}

func newOneShot(p Params, r int) *OneShot {
	return &OneShot{params: p, r: r, snaps: [1]int{r}}
}

// Name implements Algorithm.
func (a *OneShot) Name() string { return "oneshot-fig3" }

// Params implements Algorithm.
func (a *OneShot) Params() Params { return a.params }

// Components returns the snapshot component count r.
func (a *OneShot) Components() int { return a.r }

// Spec implements Algorithm: one snapshot object with r components. Its
// Snaps slice is the algorithm's own, so Spec allocates nothing; callers
// must treat it as read-only.
func (a *OneShot) Spec() shmem.Spec { return shmem.Spec{Snaps: a.snaps[:]} }

// Registers implements Algorithm: min(n+2m−k, n) per Theorem 7.
func (a *OneShot) Registers() int { return min(a.r, a.params.N) }

// Anonymous implements Algorithm.
func (a *OneShot) Anonymous() bool { return false }

// NewProcess implements Algorithm.
func (a *OneShot) NewProcess(id int) Process {
	return &oneShotProc{alg: a, id: id}
}

type oneShotProc struct {
	alg      *OneShot
	id       int
	proposed bool
	att      oneShotAttempt // reused per Propose; no allocation per call
}

var _ Resumable = (*oneShotProc)(nil)

// Propose is the code of Figure 3 for the process with identifier id: the
// synchronous driver over the resumable machine.
func (p *oneShotProc) Propose(mem shmem.Mem, v int) int {
	return drive(p.Begin(v), mem)
}

// Begin implements Resumable: the one-shot guard plus the loop's initial
// state (pref ← v, i ← 0).
func (p *oneShotProc) Begin(v int) Attempt {
	if p.proposed {
		panic("core: one-shot Propose invoked twice on the same process")
	}
	p.proposed = true
	p.att = oneShotAttempt{p: p, pref: v, mine: Pair{Val: v, ID: p.id}}
	return &p.att
}

// oneShotAttempt carries the loop-local state of Figure 3 across Steps.
// mine is (pref, id) pre-boxed as a shmem.Value: the pair is written every
// iteration and compared against every scan entry, and boxing it once per
// preference (Begin and each adoption) instead of per Step keeps the
// iteration allocation-free.
type oneShotAttempt struct {
	p    *oneShotProc
	pref int
	i    int
	mine shmem.Value
}

// Step runs one iteration of the Figure 3 loop.
func (a *oneShotAttempt) Step(mem shmem.Mem) (int, bool) {
	p := a.p
	r, m := p.alg.r, p.alg.params.M

	// line 7: update ith component of A with (pref, id)
	mem.Update(0, a.i, a.mine)
	// line 8: s ← scan of A
	s := mem.Scan(0)

	// lines 9-10: if |{s[j]}| ≤ m and no component is ⊥, output the
	// value of the first duplicated pair and halt.
	if !hasNil(s) && distinctAtMost(s, m) {
		if j1, ok := minDupIndex(s); ok {
			return s[j1].(Pair).Val, true
		}
		// Unreachable when r > m (pigeonhole); with an undersized
		// experimental r every entry can be distinct, in which case
		// the rule cannot fire.
		a.i = (a.i + 1) % r
		return 0, false
	}

	// lines 11-13: if my pair appears nowhere but position i and some
	// pair appears twice, adopt the first duplicated value.
	//
	// Lemma 5 states the loop dichotomy: each iteration either keeps
	// pref and advances i, or *changes* pref and keeps i. A duplicated
	// pair may carry the value the process already prefers (under
	// another identifier); adopting it would change nothing, so that
	// iteration must advance i instead — otherwise a solo process
	// facing stale duplicated pairs of its own value would spin
	// forever, contradicting Lemma 5.
	if allOthersForeign(s, a.i, a.mine) {
		if j1, ok := minDupIndex(s); ok && s[j1].(Pair).Val != a.pref {
			a.pref = s[j1].(Pair).Val
			a.mine = Pair{Val: a.pref, ID: p.id}
			return 0, false
		}
	}
	// line 14: otherwise advance to the next component.
	a.i = (a.i + 1) % r
	return 0, false
}
