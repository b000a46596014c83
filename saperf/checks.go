package main

import (
	"errors"
	"fmt"
)

// The checks run outside the library, on the values it returns. A failed
// check fails its operation: it counts in the run's failed total and makes
// the run incorrect.
var (
	errInvalid  = errors.New("decided a value nobody proposed")
	errDisagree = errors.New("processes of one instance decided different values")
)

// checkOwn checks a solo proposer, which must decide its own value.
func checkOwn(got, proposed int) error {
	if got != proposed {
		return fmt.Errorf("%w: solo proposer of %d decided %d", errInvalid, proposed, got)
	}
	return nil
}

// checkPair checks two processes of one instance that proposed v0 and v1
// and decided d0 and d1: with k = 1 both decide the same value, one of the
// two proposed.
func checkPair(d0, d1, v0, v1 int) error {
	if d0 != d1 {
		return fmt.Errorf("%w: %d and %d", errDisagree, d0, d1)
	}
	if d0 != v0 && d0 != v1 {
		return fmt.Errorf("%w: %d, proposed %d and %d", errInvalid, d0, v0, v1)
	}
	return nil
}

// agreementTable checks one async-contended epoch. On object o, proc p
// proposes proposal(o, i, p) at instance i; at most one value may be decided
// per (o, i), and it must be one of the asyncProcs proposals.
type agreementTable struct {
	seeds   [asyncObjects]uint64
	decided [asyncObjects][asyncRounds]int
	set     [asyncObjects][asyncRounds]bool
}

func (t *agreementTable) reset(seeds [asyncObjects]uint64) {
	t.seeds = seeds
	t.set = [asyncObjects][asyncRounds]bool{}
}

// base is the value every proposal of (o, i) shares; proc p adds p, so a
// decision names both its instance and its proposer.
func (t *agreementTable) base(o, i int) int { return int(mix(t.seeds[o]+uint64(i))%1000) * asyncProcs }

func (t *agreementTable) proposal(o, i, p int) int { return t.base(o, i) + p }

// check records got as decided at (o, i).
func (t *agreementTable) check(o, i, got int) error {
	if b := t.base(o, i); got < b || got >= b+asyncProcs {
		return fmt.Errorf("%w: %d at object %d instance %d", errInvalid, got, o, i)
	}
	if t.set[o][i] && t.decided[o][i] != got {
		return fmt.Errorf("%w: %d and %d at object %d instance %d", errDisagree, t.decided[o][i], got, o, i)
	}
	t.decided[o][i], t.set[o][i] = got, true
	return nil
}
