package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"testing"

	"setagreement/internal/core"
	"setagreement/internal/scenario"
)

// Golden digests of one seeded simulator run each of Figure 4 and Figure 5
// (n=4, m=2, k=2, eight instances per process). sig hashes the concatenated
// sim.Runner.StateSignature before every scheduled step; trace hashes
// scenario.TraceText of the recorded run. Both render every register tuple
// through RTuple/ATuple.String and every H value through History's %v form,
// so they pin the printed form of histories as well as the executions
// themselves: a change to how histories are stored must leave them
// byte-identical.
var goldenDigests = []struct {
	name       string
	alg        func(core.Params) (core.Algorithm, error)
	sig, trace string
}{
	{
		name:  "repeated-fig4",
		alg:   func(p core.Params) (core.Algorithm, error) { return core.NewRepeated(p) },
		sig:   "ad7262089c402782b90c9cf17af0711a513d00fc0ee7d3e2fc9d3fdf8cb0f7d6",
		trace: "3bf07c523fcaf1607348db5d5b7a9ddc1ed08930d2e659375a80cd11d052ef37",
	},
	{
		name:  "anonymous-fig5",
		alg:   func(p core.Params) (core.Algorithm, error) { return core.NewAnonRepeated(p) },
		sig:   "9190b78a70b62038ebcd14a16748d6976d4d3d7578c2c323b49fea1081ac18a8",
		trace: "816ad8b21e923df4d7e54609e77591fe6115b0d4282d2ef4f2e90d0f81c4cf24",
	},
}

// signing wraps a scheduler and hashes the runner's state signature before
// every step it schedules.
type signing struct {
	inner scenario.Scheduler
	h     hash.Hash
}

func (s *signing) Next(w *scenario.World) (int, bool) {
	io.WriteString(s.h, w.Runner().StateSignature())
	return s.inner.Next(w)
}

func TestGoldenTraceDigests(t *testing.T) {
	const seed = 11
	p := core.Params{N: 4, M: 2, K: 2}
	for _, g := range goldenDigests {
		t.Run(g.name, func(t *testing.T) {
			spec := scenario.WorldSpec{
				Name:      g.name,
				Algorithm: func() (core.Algorithm, error) { return g.alg(p) },
				Configure: func(w *scenario.World) error {
					w.CreateGroup(p.N).SetInputs(func(local int) []int {
						in := make([]int, 8)
						for j := range in {
							in[j] = 10*(j+1) + local%3
						}
						return in
					})
					return nil
				},
				Options: scenario.Options{Seed: seed, MaxEvents: 50_000},
			}
			w, err := spec.New()
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			s := &signing{inner: scenario.NewRandom(seed), h: sha256.New()}
			res, err := w.Run(s)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Completed {
				t.Fatalf("run did not complete in %d steps", res.Steps)
			}
			if err := res.Check(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(scenario.TraceText(res.Trace)))
			sig, trace := hex.EncodeToString(s.h.Sum(nil)), hex.EncodeToString(sum[:])
			if sig != g.sig {
				t.Errorf("state-signature digest %s, want %s", sig, g.sig)
			}
			if trace != g.trace {
				t.Errorf("trace digest %s, want %s", trace, g.trace)
			}
		})
	}
}
