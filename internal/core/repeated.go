package core

import (
	"fmt"

	"setagreement/internal/shmem"
)

// RTuple is the (value, identifier, instance, history) tuple the repeated
// algorithm of Figure 4 stores in snapshot components. A tuple with T == t
// is what the paper calls a "t-tuple".
type RTuple struct {
	Val int
	ID  int
	T   int
	His History
}

// String renders the tuple as "(v,pid,t,his)".
func (t RTuple) String() string {
	return fmt.Sprintf("(%d,p%d,t%d,%q)", t.Val, t.ID, t.T, t.His.String())
}

// Repeated is the m-obstruction-free repeated k-set agreement algorithm of
// Figure 4. Space matches the one-shot algorithm: a snapshot object with
// r = n+2m−k components, min(n+2m−k, n) registers (Theorem 8).
type Repeated struct {
	params Params
	r      int
	snaps  [1]int  // Spec's component counts, {r}: built once, shared
	root   History // the empty history every process starts from
}

var _ Algorithm = (*Repeated)(nil)

// NewRepeated builds the algorithm for the given parameters.
func NewRepeated(p Params) (*Repeated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newRepeated(p, p.N+2*p.M-p.K), nil
}

// NewRepeatedComponents builds the algorithm with an explicit component
// count r. Values below n+2m−k are used by the Theorem 2 lower-bound
// experiments; the algorithm then loses either k-agreement or liveness.
func NewRepeatedComponents(p Params, r int) (*Repeated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if r < 1 {
		return nil, fmt.Errorf("core: repeated needs r ≥ 1 components, got %d", r)
	}
	return newRepeated(p, r), nil
}

func newRepeated(p Params, r int) *Repeated {
	return &Repeated{params: p, r: r, snaps: [1]int{r}, root: NewHistory()}
}

// Name implements Algorithm.
func (a *Repeated) Name() string { return "repeated-fig4" }

// Params implements Algorithm.
func (a *Repeated) Params() Params { return a.params }

// Components returns the snapshot component count r.
func (a *Repeated) Components() int { return a.r }

// Spec implements Algorithm: one snapshot object with r components. Its
// Snaps slice is the algorithm's own, so Spec allocates nothing; callers
// must treat it as read-only.
func (a *Repeated) Spec() shmem.Spec { return shmem.Spec{Snaps: a.snaps[:]} }

// Registers implements Algorithm: min(n+2m−k, n) per Theorem 8.
func (a *Repeated) Registers() int { return min(a.r, a.params.N) }

// Anonymous implements Algorithm.
func (a *Repeated) Anonymous() bool { return false }

// NewProcess implements Algorithm. The returned process owns the persistent
// local variables i, t and history of the pseudocode.
func (a *Repeated) NewProcess(id int) Process {
	p := &repeatedProc{alg: a, id: id, his: a.root}
	// The is-a-t-tuple predicate reads the live attempt's instance through p,
	// so one closure serves every Propose of the process instead of costing
	// an allocation per call.
	p.isT = func(v shmem.Value) bool {
		tu, ok := v.(RTuple)
		return ok && tu.T == p.att.t
	}
	return p
}

type repeatedProc struct {
	alg *Repeated
	id  int
	i   int                    // persistent component index
	t   int                    // persistent instance counter
	his History                // persistent output history
	att repeatedAttempt        // reused per Propose; no allocation per call
	isT func(shmem.Value) bool // is-a-t-tuple for the current attempt
}

var _ Resumable = (*repeatedProc)(nil)

// Propose is the code of Figure 4 for one invocation: the synchronous
// driver over the resumable machine.
func (p *repeatedProc) Propose(mem shmem.Mem, v int) int {
	return drive(p.Begin(v), mem)
}

// Begin implements Resumable: lines 8-11 — t ← t+1, the history replay
// shortcut (an Attempt that is done before its first Step), pref ← v.
func (p *repeatedProc) Begin(v int) Attempt {
	p.t++
	t := p.t
	p.att = repeatedAttempt{p: p, t: t, pref: v,
		mine: RTuple{Val: v, ID: p.id, T: t, His: p.his},
		isT:  p.isT}
	if p.his.Len() >= p.t {
		p.att.out, p.att.done = p.his.At(p.t), true
	}
	return &p.att
}

// repeatedAttempt carries the loop-local state of Figure 4 across Steps.
// mine is (pref, id, t, his) pre-boxed as a shmem.Value, built once per
// Propose (re-boxed on each adoption); isT is the process's shared
// is-a-t-tuple predicate. Both are consulted every iteration and neither
// costs the iteration an allocation. The history mine embeds is stable for
// the attempt: p.his only changes on the paths that decide and end the
// attempt.
type repeatedAttempt struct {
	p    *repeatedProc
	t    int
	pref int
	out  int
	done bool
	mine shmem.Value
	isT  func(shmem.Value) bool
}

// Step runs one iteration of the Figure 4 loop (or replays the decision
// Begin already reached).
func (a *repeatedAttempt) Step(mem shmem.Mem) (int, bool) {
	if a.done {
		return a.out, true
	}
	p, t := a.p, a.t
	r, m := p.alg.r, p.alg.params.M

	// line 13: update ith component with (pref, id, t, history).
	mem.Update(0, p.i, a.mine)
	// line 14: s ← scan of A.
	s := mem.Scan(0)

	// lines 15-16: shortcut — adopt the history of any process already
	// past instance t.
	for _, x := range s {
		if tu, ok := x.(RTuple); ok && tu.T > t {
			p.his = tu.His
			a.out, a.done = p.his.At(t), true
			return a.out, true
		}
	}

	// lines 17-21: decide if at most m distinct entries and no entry is
	// ⊥ or from an earlier instance. (Entries from later instances were
	// handled above, so every entry is a t-tuple.)
	if p.canDecide(s, t, m) {
		if j1, ok := minDupIndex(s); ok {
			w := s[j1].(RTuple).Val
			p.his = p.his.Append(w)
			a.out, a.done = w, true
			return w, true
		}
		// Only reachable with an experimentally undersized r ≤ m: no
		// duplicate to pick, keep looping.
	}

	// lines 22-24: adopt the value of the first duplicated t-tuple if my
	// own tuple appears nowhere else and some t-tuple is duplicated. As
	// in the one-shot algorithm, an iteration adopts only if it actually
	// changes pref (the dichotomy of Lemma 5, reused by Lemma 14);
	// otherwise it advances i.
	adopted := false
	if allOthersForeign(s, p.i, a.mine) {
		if j1, ok := minDupIndexWhere(s, a.isT); ok && s[j1].(RTuple).Val != a.pref {
			a.pref = s[j1].(RTuple).Val
			a.mine = RTuple{Val: a.pref, ID: p.id, T: t, His: p.his}
			adopted = true
		}
	}
	if !adopted {
		// line 25: advance to the next component.
		p.i = (p.i + 1) % r
	}
	return 0, false
}

// canDecide checks the condition of line 17: every component holds a tuple
// of instance ≥ t (neither ⊥ nor a stale t′<t tuple) and at most m distinct
// entries appear.
func (p *repeatedProc) canDecide(s []shmem.Value, t, m int) bool {
	for _, x := range s {
		tu, ok := x.(RTuple)
		if !ok || tu.T < t {
			return false
		}
	}
	return distinctAtMost(s, m)
}
