package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"setagreement/internal/core"
	"setagreement/internal/sched"
	"setagreement/internal/sim"
	"setagreement/internal/spec"
)

// TestQuickHistoryRoundTrip: any int sequence survives the History encoding.
func TestQuickHistoryRoundTrip(t *testing.T) {
	prop := func(vals []int) bool {
		h := core.NewHistory()
		for _, v := range vals {
			h = h.Append(v)
		}
		if h.Len() != len(vals) {
			return false
		}
		got := h.Values()
		for i, v := range vals {
			if got[i] != v || h.At(i+1) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHistoryAppendIsInjective: grown from one root, two sequences are
// the same History exactly when they hold the same values.
func TestQuickHistoryAppendIsInjective(t *testing.T) {
	prop := func(a, b []int8) bool {
		root := core.NewHistory()
		ha, hb := root, root
		for _, v := range a {
			ha = ha.Append(int(v))
		}
		for _, v := range b {
			hb = hb.Append(int(v))
		}
		same := len(a) == len(b)
		if same {
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
		}
		return (ha == hb) == same
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// quickConfig is a randomly drawn system configuration.
type quickConfig struct {
	p        core.Params
	algIdx   int
	seed     int64
	prefix   int
	instants int
}

// drawConfig builds a valid random configuration from a seed.
func drawConfig(r *rand.Rand) quickConfig {
	n := 2 + r.Intn(5) // 2..6
	k := 1 + r.Intn(n-1)
	m := 1 + r.Intn(k)
	return quickConfig{
		p:        core.Params{N: n, M: m, K: k},
		algIdx:   r.Intn(4),
		seed:     r.Int63(),
		prefix:   r.Intn(400),
		instants: 1 + r.Intn(2),
	}
}

// TestQuickSafetyUnderRandomSystems: validity and k-agreement hold for
// random (n, m, k), algorithm, schedule seed and contention prefix.
func TestQuickSafetyUnderRandomSystems(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := drawConfig(r)
		var (
			alg core.Algorithm
			err error
		)
		switch cfg.algIdx {
		case 0:
			alg, err = core.NewOneShot(cfg.p)
			cfg.instants = 1
		case 1:
			alg, err = core.NewRepeated(cfg.p)
		case 2:
			alg, err = core.NewAnonRepeated(cfg.p)
		default:
			alg, err = core.NewAnonOneShot(cfg.p)
			cfg.instants = 1
		}
		if err != nil {
			t.Logf("build %v: %v", cfg.p, err)
			return false
		}
		inputs := make([][]int, cfg.p.N)
		for i := range inputs {
			inputs[i] = make([]int, cfg.instants)
			for ti := range inputs[i] {
				inputs[i][ti] = 1000*(ti+1) + i
			}
		}
		memSpec, procs := core.System(alg, inputs)
		runner, err := sim.NewRunner(memSpec, procs)
		if err != nil {
			t.Logf("runner: %v", err)
			return false
		}
		defer runner.Abort()
		if _, err := runner.Run(sched.NewRandom(cfg.seed), cfg.prefix); err != nil {
			t.Logf("random: %v", err)
			return false
		}
		if _, err := runner.Run(&sched.Sequential{}, 3_000_000); err != nil {
			t.Logf("drain: %v", err)
			return false
		}
		outs := spec.Collect(runner)
		if err := spec.CheckAll(inputs, outs, cfg.p.K); err != nil {
			t.Logf("cfg %+v: %v", cfg, err)
			return false
		}
		return runner.AllDone()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEllAndFormulas: algebraic identities of the parameter formulas.
func TestQuickEllAndFormulas(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := drawConfig(r)
		p := cfg.p
		// r_anon = (m+1)(n−k)+m² = (m+1)(ℓ−1)+1 (the appendix identity).
		anonR := (p.M+1)*(p.N-p.K) + p.M*p.M
		if anonR != (p.M+1)*(p.Ell()-1)+1 {
			return false
		}
		// The one-shot component count exceeds m (pigeonhole applies)
		// and the register cost never exceeds n.
		if p.N+2*p.M-p.K <= p.M {
			return false
		}
		return min(p.N+2*p.M-p.K, p.N) <= p.N
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
