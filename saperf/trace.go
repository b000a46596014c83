package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// callKind names one kind of call the benchmark makes into the library.
// Each is a child span of the operation that made it.
type callKind uint8

const (
	callObject callKind = iota
	callProc
	callPropose
	callProposeAsync
	callRelease
	callSubmitBatch
	callRegister
	callNext
	numCalls
)

var callNames = [numCalls]string{"Object", "Proc", "Propose", "ProposeAsync", "Release", "SubmitBatch", "Register", "Next"}

const (
	// spanEvery samples one operation in this many for the span file.
	spanEvery = 256
	// rootSpan names the span of a whole operation.
	rootSpan = "op"
	// sampleCap bounds every reservoir (see sampler).
	sampleCap = 1 << 17
)

// span is one timed interval of a sampled operation. Spans of one
// operation share Req; the operation's own span has ID 0 and Parent -1,
// and each call it made is a child with Parent 0.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	Dur    int64  `json:"dur_ns"`
}

// tracer times one client's calls during a traced pass: every call lands
// in its kind's duration sample, and the calls of one sampled operation in
// spanEvery are also kept as spans. A nil *tracer is the untraced
// configuration: begin does not read the clock and every other method
// returns at once, so an untraced pass pays one nil check per call.
type tracer struct {
	calls  [numCalls]*sampler
	named  map[string]*sampler // workload-specific timings, such as per depth
	ops    uint64
	reqTag uint64 // high bits of this client's request ids
	kids   map[uint64]int
	spans  []span
	seed   uint64
}

func newTracer(client int, seed uint64) *tracer {
	t := &tracer{
		named:  make(map[string]*sampler),
		reqTag: uint64(client+1) << 48,
		kids:   make(map[uint64]int),
		seed:   seed,
	}
	for k := range t.calls {
		t.calls[k] = newSampler(sampleCap, mix(seed+uint64(k)))
	}
	return t
}

// sample starts an operation and returns its request id when the
// operation is sampled for the span file, 0 otherwise.
func (t *tracer) sample() uint64 {
	if t == nil {
		return 0
	}
	t.ops++
	if t.ops%spanEvery != 1 {
		return 0
	}
	return t.reqTag | t.ops
}

// begin reads the clock before a call (the zero time when untraced).
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records the call of kind k begun at t0 for request req (0 when the
// operation is not sampled).
func (t *tracer) end(k callKind, t0 time.Time, req uint64) {
	if t == nil {
		return
	}
	now := time.Now()
	d := now.Sub(t0)
	t.calls[k].add(int64(d))
	if req != 0 {
		t.kids[req]++
		t.spans = append(t.spans, span{Req: req, ID: t.kids[req], Parent: 0, Name: callNames[k], Start: sinceStart(t0), Dur: int64(d)})
	}
}

// op records the whole sampled operation req, from start to end.
func (t *tracer) op(req uint64, start, end time.Time) {
	if t == nil || req == 0 {
		return
	}
	delete(t.kids, req)
	t.spans = append(t.spans, span{Req: req, ID: 0, Parent: -1, Name: rootSpan, Start: sinceStart(start), Dur: int64(end.Sub(start))})
}

// timing records d under a workload-specific name.
func (t *tracer) timing(name string, d time.Duration) {
	if t == nil {
		return
	}
	s := t.named[name]
	if s == nil {
		s = newSampler(sampleCap, mix(t.seed^uint64(len(t.named)+1)))
		t.named[name] = s
	}
	s.add(int64(d))
}

// callDist merges kind k's call durations over every client.
func callDist(ts []*tracer, k callKind) dist {
	ss := make([]*sampler, 0, len(ts))
	for _, t := range ts {
		ss = append(ss, t.calls[k])
	}
	return merge(ss...)
}

// namedDist merges a workload-specific timing over every client.
func namedDist(ts []*tracer, name string) dist {
	ss := make([]*sampler, 0, len(ts))
	for _, t := range ts {
		ss = append(ss, t.named[name])
	}
	return merge(ss...)
}

// selfTime sums, per span name, each span's duration minus the part of it
// its children cover. Children of one operation never overlap in these
// workloads' closed loops, but the union is taken anyway.
func selfTime(spans []span) map[string]time.Duration {
	byReq := make(map[uint64][]span)
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	out := make(map[string]time.Duration)
	for _, ss := range byReq {
		var root *span
		var kids []span
		for i := range ss {
			if ss[i].Parent < 0 {
				root = &ss[i]
			} else {
				kids = append(kids, ss[i])
				out[ss[i].Name] += time.Duration(ss[i].Dur)
			}
		}
		if root == nil {
			continue
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		lo, hi := root.Start, root.Start+root.Dur
		covered, cur := int64(0), lo
		for _, k := range kids {
			s, e := max(k.Start, cur), min(k.Start+k.Dur, hi)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		out[root.Name] += time.Duration(root.Dur - covered)
	}
	return out
}

// printSelfTime writes the self-time table of the sampled spans.
func printSelfTime(w io.Writer, spans []span) {
	st := selfTime(spans)
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.Name]++
	}
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	fmt.Fprintf(w, "self time over %d sampled spans (1 op in %d):\n", len(spans), spanEvery)
	for _, n := range names {
		fmt.Fprintf(w, "  %-14s %8d spans  %12.3f ms  %10.2f us/span\n", n, counts[n],
			float64(st[n])/1e6, float64(st[n])/1e3/float64(counts[n]))
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sinceStart(t time.Time) int64 { return int64(t.Sub(processStart)) }
