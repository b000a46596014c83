package setagreement_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"setagreement"
)

// calibration is the struct domain used by the typed round-trip suite:
// typed values must survive the trip through the int core on every entry
// point and backend.
type calibration struct {
	Sensor string
	Value  int
}

var bothBackends = []setagreement.MemoryBackend{
	setagreement.BackendLockFree,
	setagreement.BackendLocked,
}

// TestTypedOneShotRoundTrip runs concurrent string- and struct-valued
// one-shot agreement across both memory backends: every decision must be
// a decoded copy of some process's typed input, with at most k distinct.
func TestTypedOneShotRoundTrip(t *testing.T) {
	const n, k = 5, 2
	for _, backend := range bothBackends {
		t.Run(backend.String(), func(t *testing.T) {
			t.Run("string", func(t *testing.T) {
				a, err := setagreement.New[string](n, k,
					setagreement.WithMemoryBackend(backend),
					setagreement.WithBackoff(time.Microsecond, time.Millisecond, 64),
				)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				inputs := make(map[string]bool, n)
				for id := 0; id < n; id++ {
					inputs[fmt.Sprintf("value-%d", id)] = true
				}
				results := runTypedOneShot(t, a, n, func(id int) string {
					return fmt.Sprintf("value-%d", id)
				})
				if t.Failed() {
					return
				}
				checkDecisions(t, results, inputs, k)
			})
			t.Run("struct", func(t *testing.T) {
				a, err := setagreement.New[calibration](n, k,
					setagreement.WithMemoryBackend(backend),
					setagreement.WithBackoff(time.Microsecond, time.Millisecond, 64),
				)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				inputs := make(map[calibration]bool, n)
				for id := 0; id < n; id++ {
					inputs[calibration{Sensor: fmt.Sprintf("s%d", id), Value: 500 + id}] = true
				}
				results := runTypedOneShot(t, a, n, func(id int) calibration {
					return calibration{Sensor: fmt.Sprintf("s%d", id), Value: 500 + id}
				})
				if t.Failed() {
					return
				}
				checkDecisions(t, results, inputs, k)
			})
		})
	}
}

func runTypedOneShot[T comparable](t *testing.T, a *setagreement.Agreement[T], n int, input func(id int) T) []T {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results := make([]T, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		h, err := a.Proc(id)
		if err != nil {
			t.Fatalf("Proc(%d): %v", id, err)
		}
		wg.Add(1)
		go func(id int, h *setagreement.Handle[T]) {
			defer wg.Done()
			out, err := h.Propose(ctx, input(id))
			if err != nil {
				t.Errorf("propose %d: %v", id, err)
				return
			}
			results[id] = out
		}(id, h)
	}
	wg.Wait()
	return results
}

func checkDecisions[T comparable](t *testing.T, results []T, inputs map[T]bool, k int) {
	t.Helper()
	distinct := make(map[T]bool)
	for id, v := range results {
		if !inputs[v] {
			t.Fatalf("process %d decided non-input %v", id, v)
		}
		distinct[v] = true
	}
	if len(distinct) > k {
		t.Fatalf("k-agreement violated: %v", results)
	}
}

// TestTypedRepeatedRoundTrip drives string-valued repeated consensus on
// both backends: identical decision sequences at every process, all drawn
// from that round's typed inputs.
func TestTypedRepeatedRoundTrip(t *testing.T) {
	const n, rounds = 3, 4
	for _, backend := range bothBackends {
		t.Run(backend.String(), func(t *testing.T) {
			r, err := setagreement.NewRepeated[string](n, 1,
				setagreement.WithMemoryBackend(backend),
				setagreement.WithBackoff(time.Microsecond, time.Millisecond, 64),
			)
			if err != nil {
				t.Fatalf("NewRepeated: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			decided := make([][]string, n)
			var wg sync.WaitGroup
			for id := 0; id < n; id++ {
				h, err := r.Proc(id)
				if err != nil {
					t.Fatalf("Proc(%d): %v", id, err)
				}
				wg.Add(1)
				go func(id int, h *setagreement.Handle[string]) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						out, err := h.Propose(ctx, fmt.Sprintf("r%d-p%d", round, id))
						if err != nil {
							t.Errorf("propose %d/%d: %v", id, round, err)
							return
						}
						decided[id] = append(decided[id], out)
					}
				}(id, h)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for round := 0; round < rounds; round++ {
				want := decided[0][round]
				prefix := fmt.Sprintf("r%d-p", round)
				if len(want) < len(prefix) || want[:len(prefix)] != prefix {
					t.Fatalf("round %d decided %q, not an input of that round", round, want)
				}
				for id := 1; id < n; id++ {
					if decided[id][round] != want {
						t.Fatalf("round %d split: %q vs %q", round, decided[id][round], want)
					}
				}
			}
		})
	}
}

// TestTypedAnonymousRoundTrip runs struct-valued anonymous agreement on
// both backends.
func TestTypedAnonymousRoundTrip(t *testing.T) {
	const n, k = 4, 2
	for _, backend := range bothBackends {
		t.Run(backend.String(), func(t *testing.T) {
			a, err := setagreement.NewAnonymous[calibration](n, k,
				setagreement.WithMemoryBackend(backend),
				setagreement.WithBackoff(time.Microsecond, time.Millisecond, 64),
			)
			if err != nil {
				t.Fatalf("NewAnonymous: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			inputs := make(map[calibration]bool, n)
			results := make([]calibration, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				in := calibration{Sensor: fmt.Sprintf("anon-%d", i), Value: i}
				inputs[in] = true
				s, err := a.Session()
				if err != nil {
					t.Fatalf("Session %d: %v", i, err)
				}
				wg.Add(1)
				go func(i int, in calibration, s *setagreement.Handle[calibration]) {
					defer wg.Done()
					out, err := s.Propose(ctx, in)
					if err != nil {
						t.Errorf("session %d: %v", i, err)
						return
					}
					results[i] = out
				}(i, in, s)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			checkDecisions(t, results, inputs, k)
		})
	}
}

// TestCustomCodec plugs an application codec (stable enum codes) into a
// typed object in place of the interning default.
func TestCustomCodec(t *testing.T) {
	codec := colorCodec{}
	a, err := setagreement.New[string](3, 1, setagreement.WithCodec[string](codec))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := a.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	out, err := h.Propose(context.Background(), "green")
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if out != "green" {
		t.Fatalf("decided %q, want green (solo run)", out)
	}
}

// TestAsyncCodecPanicFailsOneFuture: a custom codec that panics inside the
// engine (colorCodec on a value outside its table) fails that one future
// with an error carrying the panic value and poisons its handle; the engine
// keeps serving, so another handle on the same object still decides.
func TestAsyncCodecPanicFailsOneFuture(t *testing.T) {
	a, err := setagreement.New[string](3, 1, setagreement.WithCodec[string](colorCodec{}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	handles := claimAll(t, a, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = handles[0].ProposeAsync(ctx, "purple").Value()
	if err == nil || !strings.Contains(err.Error(), `color "purple" outside the codec domain`) {
		t.Fatalf("panicking Encode resolved the future with %v, want an error carrying the panic value", err)
	}
	if _, err := handles[0].Propose(ctx, "red"); !errors.Is(err, setagreement.ErrPoisoned) {
		t.Fatalf("handle after a panicked proposal: %v, want ErrPoisoned", err)
	}
	out, err := handles[1].ProposeAsync(ctx, "blue").Value()
	if err != nil || out != "blue" {
		t.Fatalf("other handle on the same engine decided %q, %v; want blue", out, err)
	}
}

// colorCodec is a fixed-table codec: codes are stable across objects,
// unlike first-seen interning. Its domain is exactly the table — Encode
// must be injective, so values outside it are a caller bug.
type colorCodec struct{}

var colors = []string{"red", "green", "blue"}

func (colorCodec) Encode(v string) int {
	for i, c := range colors {
		if c == v {
			return i
		}
	}
	panic(fmt.Sprintf("color %q outside the codec domain", v))
}

func (colorCodec) Decode(code int) (string, error) {
	if code < 0 || code >= len(colors) {
		return "", fmt.Errorf("unknown color code %d", code)
	}
	return colors[code], nil
}

// TestHandleLifecycleTyped exercises the unified handle state machine on a
// typed object: double-claim, poisoning after cancellation, and one-shot
// exhaustion.
func TestHandleLifecycleTyped(t *testing.T) {
	a, err := setagreement.New[string](3, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := a.Proc(1)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	if _, err := a.Proc(1); !errors.Is(err, setagreement.ErrInUse) {
		t.Fatalf("double claim err = %v", err)
	}

	// Cancellation poisons.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Propose(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled propose err = %v", err)
	}
	if _, err := h.Propose(context.Background(), "y"); !errors.Is(err, setagreement.ErrPoisoned) {
		t.Fatalf("poisoned propose err = %v", err)
	}

	// A fresh handle proposes once on a one-shot object, then is done.
	h2, err := a.Proc(2)
	if err != nil {
		t.Fatalf("Proc(2): %v", err)
	}
	if _, err := h2.Propose(context.Background(), "z"); err != nil {
		t.Fatalf("propose: %v", err)
	}
	if _, err := h2.Propose(context.Background(), "w"); !errors.Is(err, setagreement.ErrAlreadyProposed) {
		t.Fatalf("second propose err = %v", err)
	}

	// Anonymous sessions share the same lifecycle.
	anon, err := setagreement.NewAnonymousOneShot[string](2, 1)
	if err != nil {
		t.Fatalf("NewAnonymousOneShot: %v", err)
	}
	s, err := anon.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if _, err := s.Propose(context.Background(), "once"); err != nil {
		t.Fatalf("session propose: %v", err)
	}
	if _, err := s.Propose(context.Background(), "twice"); !errors.Is(err, setagreement.ErrAlreadyProposed) {
		t.Fatalf("session second propose err = %v", err)
	}
}

// TestHandleStats checks the per-handle instrumentation: counters start at
// zero, grow with proposes, and the object-wide backend counters are
// visible through every handle.
func TestHandleStats(t *testing.T) {
	r, err := setagreement.NewRepeated[int](2, 1)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	if s := h.Stats(); s.Proposes != 0 || s.Steps != 0 || s.Scans != 0 || s.WaitTime != 0 {
		t.Fatalf("fresh handle stats = %+v", s)
	}
	ctx := context.Background()
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if _, err := h.Propose(ctx, i); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	s := h.Stats()
	if s.Proposes != rounds {
		t.Fatalf("Proposes = %d, want %d", s.Proposes, rounds)
	}
	if s.Steps == 0 {
		t.Fatalf("Steps = 0 after %d proposes", rounds)
	}
	if s.Scans == 0 || s.Scans > s.Steps {
		t.Fatalf("Scans = %d (Steps = %d)", s.Scans, s.Steps)
	}
	if s.MemSteps < s.Steps {
		t.Fatalf("MemSteps = %d < handle Steps = %d", s.MemSteps, s.Steps)
	}
	if s.CASRetries != 0 {
		t.Fatalf("CASRetries = %d on a solo run", s.CASRetries)
	}
	// A second handle sees the same object-wide counters but its own
	// per-handle ones.
	h1, err := r.Proc(1)
	if err != nil {
		t.Fatalf("Proc(1): %v", err)
	}
	s1 := h1.Stats()
	if s1.Steps != 0 || s1.Proposes != 0 {
		t.Fatalf("second handle inherited per-handle stats: %+v", s1)
	}
	if s1.MemSteps < s.Steps {
		t.Fatalf("object-wide MemSteps not shared: %d", s1.MemSteps)
	}
}

// TestProposeCodecPanicPoisons: a custom codec that panics in a sync
// Propose — in Encode before the run, or in Decode after the decision —
// fails that call with an error carrying the panic value and poisons the
// handle, instead of unwinding into the caller with the handle stuck busy.
func TestProposeCodecPanicPoisons(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec setagreement.Codec[string]
		in    string
		want  string
	}{
		{"encode", colorCodec{}, "purple", `color "purple" outside the codec domain`},
		{"decode", decodePanicCodec{}, "red", "decode refused code 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := setagreement.New[string](3, 1, setagreement.WithCodec(tc.codec))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			h := claimAll(t, a, 1)[0]
			ctx := context.Background()
			_, err = h.Propose(ctx, tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("panicking codec: Propose returned %v, want an error carrying %q", err, tc.want)
			}
			if _, err := h.Propose(ctx, "red"); !errors.Is(err, setagreement.ErrPoisoned) {
				t.Fatalf("handle after a panicked Propose: %v, want ErrPoisoned", err)
			}
		})
	}
}

// decodePanicCodec encodes like colorCodec but panics on every Decode.
type decodePanicCodec struct{ colorCodec }

func (decodePanicCodec) Decode(code int) (string, error) {
	panic(fmt.Errorf("decode refused code %d", code))
}
