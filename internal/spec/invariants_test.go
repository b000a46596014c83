package spec_test

import (
	"strings"
	"testing"

	"setagreement/internal/core"
	"setagreement/internal/sched"
	"setagreement/internal/shmem"
	"setagreement/internal/sim"
	"setagreement/internal/spec"
)

func inputsFor(n, instances int) [][]int {
	in := make([][]int, n)
	for i := range in {
		in[i] = make([]int, instances)
		for t := range in[i] {
			in[i][t] = 1000*(t+1) + i
		}
	}
	return in
}

func TestLemma3HoldsAlongExecutions(t *testing.T) {
	p := core.Params{N: 5, M: 2, K: 3}
	inputs := inputsFor(p.N, 1)
	for seed := int64(0); seed < 6; seed++ {
		alg, err := core.NewOneShot(p)
		if err != nil {
			t.Fatalf("NewOneShot: %v", err)
		}
		memSpec, procs := core.System(alg, inputs)
		r, err := sim.NewRunner(memSpec, procs)
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		err = spec.RunWithInvariants(r, sched.NewRandom(seed), 30_000,
			spec.Lemma3{}, spec.StoredValidity{Inputs: inputs})
		r.Abort()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLemma12HoldsAlongExecutions(t *testing.T) {
	p := core.Params{N: 4, M: 1, K: 2}
	inputs := inputsFor(p.N, 3)
	for seed := int64(0); seed < 6; seed++ {
		alg, err := core.NewRepeated(p)
		if err != nil {
			t.Fatalf("NewRepeated: %v", err)
		}
		memSpec, procs := core.System(alg, inputs)
		r, err := sim.NewRunner(memSpec, procs)
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		err = spec.RunWithInvariants(r, sched.NewRandom(seed), 60_000,
			spec.Lemma12{}, spec.StoredValidity{Inputs: inputs})
		r.Abort()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAnonymousStoredValidityHolds(t *testing.T) {
	p := core.Params{N: 4, M: 2, K: 2}
	inputs := inputsFor(p.N, 2)
	for seed := int64(0); seed < 4; seed++ {
		alg, err := core.NewAnonRepeated(p)
		if err != nil {
			t.Fatalf("NewAnonRepeated: %v", err)
		}
		memSpec, procs := core.System(alg, inputs)
		r, err := sim.NewRunner(memSpec, procs)
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		err = spec.RunWithInvariants(r, sched.NewRandom(seed), 60_000,
			spec.StoredValidity{Inputs: inputs})
		r.Abort()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// violatingProgram plants a Lemma 3 violation directly.
func violatingProgram(p *sim.Proc) {
	p.Update(0, 0, core.Pair{Val: 1, ID: 7})
	p.Update(0, 1, core.Pair{Val: 2, ID: 7}) // same id, different value
}

func TestInvariantCheckersDetectViolations(t *testing.T) {
	r, err := sim.NewRunner(shmem.Spec{Snaps: []int{2}},
		[]sim.ProcSpec{{ID: 0, Run: violatingProgram}})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	defer r.Abort()
	err = spec.RunWithInvariants(r, &sched.Sequential{}, 100, spec.Lemma3{})
	if err == nil {
		t.Fatal("planted Lemma 3 violation not detected")
	}
	if !strings.Contains(err.Error(), "Lemma 3") {
		t.Fatalf("error text %q", err)
	}
}

func TestStoredValidityDetectsForeignValue(t *testing.T) {
	bad := func(p *sim.Proc) {
		p.Update(0, 0, core.RTuple{Val: 999999, ID: 0, T: 1})
	}
	r, err := sim.NewRunner(shmem.Spec{Snaps: []int{2}},
		[]sim.ProcSpec{{ID: 0, Run: bad}})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	defer r.Abort()
	err = spec.RunWithInvariants(r, &sched.Sequential{}, 100,
		spec.StoredValidity{Inputs: [][]int{{1}, {2}}})
	if err == nil {
		t.Fatal("foreign stored value not detected")
	}
}

func TestStoredValidityDetectsCorruptHistory(t *testing.T) {
	bad := func(p *sim.Proc) {
		p.Update(0, 0, core.RTuple{Val: 1, ID: 0, T: 2, His: core.HistoryOf(777)})
	}
	r, err := sim.NewRunner(shmem.Spec{Snaps: []int{2}},
		[]sim.ProcSpec{{ID: 0, Run: bad}})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	defer r.Abort()
	err = spec.RunWithInvariants(r, &sched.Sequential{}, 100,
		spec.StoredValidity{Inputs: [][]int{{1, 1}, {2, 2}}})
	if err == nil {
		t.Fatal("corrupt history entry not detected")
	}
}

func TestLemma12DetectsConflictingTuples(t *testing.T) {
	root := core.NewHistory()
	bad := func(p *sim.Proc) {
		p.Update(0, 0, core.RTuple{Val: 1, ID: 3, T: 2, His: root.Append(1)})
		p.Update(0, 1, core.RTuple{Val: 1, ID: 3, T: 2, His: root.Append(2)}) // history differs
	}
	r, err := sim.NewRunner(shmem.Spec{Snaps: []int{2}},
		[]sim.ProcSpec{{ID: 0, Run: bad}})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	defer r.Abort()
	err = spec.RunWithInvariants(r, &sched.Sequential{}, 100, spec.Lemma12{})
	if err == nil {
		t.Fatal("conflicting tuples not detected")
	}
}
