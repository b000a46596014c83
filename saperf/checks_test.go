package main

import (
	"errors"
	"io"
	"testing"
	"time"
)

func TestChecksRejectDisagreeingAndInvalidDecisions(t *testing.T) {
	if err := checkOwn(5, 5); err != nil {
		t.Errorf("solo decision of own value: %v", err)
	}
	if err := checkOwn(6, 5); !errors.Is(err, errInvalid) {
		t.Errorf("solo decision of another value: %v, want errInvalid", err)
	}
	for _, c := range []struct {
		d0, d1 int
		want   error
	}{{3, 3, nil}, {9, 9, nil}, {3, 9, errDisagree}, {7, 7, errInvalid}} {
		if err := checkPair(c.d0, c.d1, 3, 9); !errors.Is(err, c.want) {
			t.Errorf("checkPair(%d, %d) = %v, want %v", c.d0, c.d1, err, c.want)
		}
	}

	var tab agreementTable
	tab.reset([asyncObjects]uint64{11, 22, 33})
	if err := tab.check(1, 4, tab.proposal(1, 4, 6)); err != nil {
		t.Fatalf("first decision: %v", err)
	}
	if err := tab.check(1, 4, tab.proposal(1, 4, 6)); err != nil {
		t.Errorf("agreeing decision: %v", err)
	}
	if err := tab.check(1, 4, tab.proposal(1, 4, 2)); !errors.Is(err, errDisagree) {
		t.Errorf("disagreeing decision: %v, want errDisagree", err)
	}
	if err := tab.check(1, 5, tab.proposal(1, 4, 2)+asyncProcs*1000); !errors.Is(err, errInvalid) {
		t.Errorf("unproposed decision: %v, want errInvalid", err)
	}
	// A new epoch forgets the old decisions.
	tab.reset([asyncObjects]uint64{11, 22, 33})
	if err := tab.check(1, 4, tab.proposal(1, 4, 2)); err != nil {
		t.Errorf("decision after reset: %v", err)
	}
}

// injecting stands in for a library whose pairs of processes decide
// (1, 1) for proposals 1 and 3, except that op i disagrees when i%5 == 4
// and decides the unproposed 2 when i%7 == 6.
type injecting struct{}

func (injecting) counters() counters { return counters{} }

func (injecting) drive(c *client, b budget) error {
	for {
		start := time.Now()
		d0, d1 := 1, 1
		switch {
		case c.ops%5 == 4:
			d1 = 3
		case c.ops%7 == 6:
			d0, d1 = 2, 2
		}
		c.done(start, time.Now(), checkPair(d0, d1, 1, 3))
		if b.done(c.ops, time.Now()) {
			return nil
		}
	}
}

func TestInjectedFailuresFailTheRun(t *testing.T) {
	w := &workload{name: "injecting", n: 2, clients: 1, decisionsPerOp: 1, warmOps: 1, sliceOps: 1000,
		setup: func(*pass, int) (instance, error) { return injecting{}, nil }}
	rec, _, err := measure(w, config{seed: 1, seconds: 0.01}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := int64(0); i < rec.Attempted; i++ {
		if i%5 == 4 || i%7 == 6 {
			want++
		}
	}
	if rec.Correct || rec.Failed != want {
		t.Errorf("correct=%v failed=%d of %d; want incorrect with %d failed", rec.Correct, rec.Failed, rec.Attempted, want)
	}
}
