package core

import (
	"setagreement/internal/shmem"
	"setagreement/internal/sim"
)

// Process is one process's handle on an agreement algorithm. A Process holds
// the persistent local state the pseudocode keeps across Propose invocations
// (i, t, history). It is used by a single caller; it is not safe for
// concurrent use.
type Process interface {
	// Propose runs the process's next Propose operation with input v and
	// returns the decided value. For repeated algorithms, successive
	// calls access successive instances; one-shot algorithms support a
	// single call.
	Propose(mem shmem.Mem, v int) int
}

// Algorithm is a register-based set-agreement algorithm: a factory for
// per-process state plus its shared-memory footprint.
type Algorithm interface {
	// Name identifies the algorithm in tables and traces.
	Name() string
	// Params returns the (n, m, k) the algorithm was built for.
	Params() Params
	// Spec is the shared memory the algorithm needs. Its Snaps slice may
	// be the algorithm's own, shared across calls: callers must not
	// modify it.
	Spec() shmem.Spec
	// Registers is the claimed register cost — the paper's formula —
	// against which experiments audit actual usage.
	Registers() int
	// Anonymous reports whether processes may receive no identifier.
	Anonymous() bool
	// NewProcess creates the persistent local state for one process.
	// id is the process identifier; anonymous algorithms must be given
	// sim.Anonymous and must not use it.
	NewProcess(id int) Process
}

// Driver wraps a Process into a sim.Program that proposes inputs[0],
// inputs[1], ... as instances 1, 2, ... and records each decision.
func Driver(p Process, inputs []int) sim.Program {
	return func(sp *sim.Proc) {
		for t, v := range inputs {
			out := p.Propose(sp, v)
			sp.Output(t+1, out)
		}
	}
}

// System builds the simulator process specs for running alg with the given
// per-process input sequences: inputs[i] is the sequence proposed by process
// i. For anonymous algorithms every process gets ID sim.Anonymous.
func System(alg Algorithm, inputs [][]int) (shmem.Spec, []sim.ProcSpec) {
	return WrappedSystem(alg, inputs, alg.Spec(), nil)
}

// WrappedSystem is System with the algorithm's logical memory presented
// through a per-process wrapper over a different physical memory — used to
// run algorithms over register-implemented snapshots (snapshot.Wire). The
// wrapper receives the process index even for anonymous algorithms (the
// snapshot construction below the algorithm may be identified while the
// algorithm itself is not); a nil wrap is the identity.
func WrappedSystem(alg Algorithm, inputs [][]int, physical shmem.Spec, wrap func(shmem.Mem, int) shmem.Mem) (shmem.Spec, []sim.ProcSpec) {
	procs := make([]sim.ProcSpec, len(inputs))
	for i := range inputs {
		id := i
		if alg.Anonymous() {
			id = sim.Anonymous
		}
		proc := alg.NewProcess(id)
		seq := inputs[i]
		idx := i
		procs[i] = sim.ProcSpec{ID: id, Run: func(sp *sim.Proc) {
			var mem shmem.Mem = sp
			if wrap != nil {
				mem = wrap(sp, idx)
			}
			for t, v := range seq {
				out := proc.Propose(mem, v)
				sp.Output(t+1, out)
			}
		}}
	}
	return physical, procs
}
