package main

import (
	"fmt"
	"time"

	"setagreement"
)

// idleTTL is the arena idle-eviction TTL of the arena workloads: short, so
// released objects are evicted and their memories recycled during the run.
const idleTTL = 20 * time.Millisecond

// registersKey names the object each arena workload reads its register
// count from at set-up; no generated key (base 36) contains "#".
const registersKey = "#registers"

var workloads = []*workload{
	{
		name:           "lease-churn",
		n:              4,
		clients:        2,
		decisionsPerOp: 1,
		warmOps:        10000,
		sliceOps:       32768,
		setup:          setupLeaseChurn,
	},
	{
		name:           "repeated-log",
		n:              4,
		clients:        1,
		decisionsPerOp: 2,
		warmOps:        1024,
		sliceOps:       logEpoch,
		setup:          setupRepeatedLog,
	},
	{
		name:           "fanout-batch",
		n:              2,
		clients:        1,
		decisionsPerOp: 2 * fanKeys,
		warmOps:        50,
		sliceOps:       1024,
		setup:          setupFanoutBatch,
	},
	{
		name:           "async-contended",
		n:              asyncProcs,
		clients:        1,
		decisionsPerOp: 1,
		warmOps:        2 * asyncHandles * asyncRounds,
		sliceOps:       4 * asyncHandles * asyncRounds,
		setup:          setupAsyncContended,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// value draws a proposal in [0, 1024) from a stream item; followers and
// second proposers add 1024, so their proposals never equal a leader's.
func value(x uint64) int { return int(x >> 54) }

// --- lease-churn ---------------------------------------------------------

// leaseChurn: each op is Object(fresh key).Proc(c) → Propose → Release on a
// one-shot arena. The key is fresh, so c is the object's only proposer and
// must be granted its own value.
type leaseChurn struct {
	p    *pass
	ar   *setagreement.Arena[int]
	regs int
}

func setupLeaseChurn(p *pass, n int) (instance, error) {
	ar, err := setagreement.NewArena[int](n, 1, setagreement.ArenaOneShot(), setagreement.WithIdleTTL(idleTTL),
		setagreement.WithObjectOptions(p.objectOptions()...))
	if err != nil {
		return nil, err
	}
	return &leaseChurn{p: p, ar: ar, regs: ar.Object(registersKey).Registers()}, nil
}

func (w *leaseChurn) counters() counters { return arenaCounters(w.ar.Stats(), w.regs) }

func (w *leaseChurn) drive(c *client, b budget) error {
	for {
		x := c.keys.next()
		k, v := key(x), value(x)
		req := c.tr.sample()
		start := time.Now()
		t := c.tr.begin()
		obj := w.ar.Object(k)
		c.tr.end(callObject, t, req)
		t = c.tr.begin()
		h, err := obj.Proc(c.id)
		c.tr.end(callProc, t, req)
		if err == nil {
			var got int
			t = c.tr.begin()
			got, err = h.Propose(w.p.ctx, v)
			c.tr.end(callPropose, t, req)
			if err == nil {
				err = checkOwn(got, v)
			}
			t = c.tr.begin()
			if rerr := h.Release(); err == nil {
				err = rerr
			}
			c.tr.end(callRelease, t, req)
		}
		end := time.Now()
		c.tr.op(req, start, end)
		c.done(start, end, err)
		if b.done(c.ops, end) {
			return nil
		}
	}
}

// --- repeated-log --------------------------------------------------------

const (
	// logBlock instances are proposed by the leader, then caught up on by
	// the follower.
	logBlock = 64
	// logEpoch instances make one epoch, each on a fresh object, so the
	// depth reached never depends on how fast a build runs.
	logEpoch = 16384
)

// Depth windows of the traced leader timings: the 512 instances up to
// depth 1k and up to depth 16k.
const (
	leaderDepth1k  = "leader_depth_1k"
	leaderDepth16k = "leader_depth_16k"
	followerTiming = "follower"
)

// repeatedLog: one client drives a leader (proc 0) and a follower (proc 1)
// on NewRepeated(n, 1). An op is one log instance: issued by the leader's
// Propose, done once the follower has decided it too, so its latency is the
// replication lag. The leader runs solo, so it must decide its own value;
// the follower must decide what the leader decided.
type repeatedLog struct {
	p                *pass
	n                int
	obj              *setagreement.Repeated[int]
	leader, follower *setagreement.Handle[int]
	retired          counters // Stats of finished epochs' objects
	props, decided   [logBlock]int
	issued           [logBlock]time.Time
	reqs             [logBlock]uint64
	errs             [logBlock]error
}

func setupRepeatedLog(p *pass, n int) (instance, error) {
	w := &repeatedLog{p: p, n: n}
	return w, w.newEpoch()
}

// newEpoch retires the current object and claims both processes on a fresh
// one.
func (w *repeatedLog) newEpoch() error {
	if w.obj != nil {
		w.retired = w.retired.combine(w.objectCounters(), 1)
	}
	obj, err := setagreement.NewRepeated[int](w.n, 1, w.p.objectOptions()...)
	if err != nil {
		return err
	}
	if w.leader, err = obj.Proc(0); err != nil {
		return err
	}
	if w.follower, err = obj.Proc(1); err != nil {
		return err
	}
	w.obj = obj
	return nil
}

func (w *repeatedLog) objectCounters() counters {
	l, f := w.leader.Stats(), w.follower.Stats()
	return counters{
		Steps: l.Steps + f.Steps, Scans: l.Scans + f.Scans, Wakeups: l.Wakeups + f.Wakeups,
		Spurious: l.SpuriousWakeups + f.SpuriousWakeups, Adopted: l.ScansAdopted + f.ScansAdopted,
		Wait: l.WaitTime + f.WaitTime,
		// MemSteps and CASRetries are object-wide: both handles report them.
		MemSteps: l.MemSteps, CASRetries: l.CASRetries,
	}
}

func (w *repeatedLog) counters() counters {
	s := w.retired.combine(w.objectCounters(), 1)
	s.Registers = w.obj.Registers()
	return s
}

// drive runs whole epochs, and the timed window ends only at an epoch
// boundary, so every run covers the same depths. The warm-up slice ends at
// a block boundary instead, and leaves a fresh object for the timed window.
func (w *repeatedLog) drive(c *client, b budget) error {
	warm := b.until.IsZero()
	for {
		for base := 0; base < logEpoch; base += logBlock {
			w.block(c, base)
			if warm && c.ops >= b.minOps {
				return w.newEpoch()
			}
		}
		if b.done(c.ops, time.Now()) {
			return nil
		}
		if err := w.newEpoch(); err != nil {
			return err
		}
	}
}

// block runs instances base+1 … base+logBlock: the leader proposes them
// all, then the follower catches up on them.
func (w *repeatedLog) block(c *client, base int) {
	for i := 0; i < logBlock; i++ {
		v := value(c.keys.next())
		w.props[i] = v
		w.reqs[i] = c.tr.sample()
		start := time.Now()
		got, err := w.leader.Propose(w.p.ctx, v)
		if c.tr != nil {
			c.tr.end(callPropose, start, w.reqs[i])
			switch depth := base + i + 1; {
			case depth > 1024-512 && depth <= 1024:
				c.tr.timing(leaderDepth1k, time.Since(start))
			case depth > logEpoch-512:
				c.tr.timing(leaderDepth16k, time.Since(start))
			}
		}
		if err == nil {
			err = checkOwn(got, v)
		}
		w.issued[i], w.decided[i], w.errs[i] = start, got, err
	}
	for i := 0; i < logBlock; i++ {
		v := 1024 + value(c.keys.next())
		t := time.Now()
		got, err := w.follower.Propose(w.p.ctx, v)
		end := time.Now()
		if c.tr != nil {
			c.tr.end(callPropose, t, w.reqs[i])
			c.tr.timing(followerTiming, end.Sub(t))
		}
		if err == nil {
			err = checkPair(w.decided[i], got, w.props[i], v)
		}
		if w.errs[i] != nil {
			err = w.errs[i]
		}
		c.tr.op(w.reqs[i], w.issued[i], end)
		c.done(w.issued[i], end, err)
	}
}

// --- fanout-batch --------------------------------------------------------

// fanKeys fresh keys per round, each proposed by procs 0 and 1.
const fanKeys = 128

// ttfdTiming is the traced time from SubmitBatch to the first completion.
const ttfdTiming = "ttfd"

// fanoutBatch: each op is one round — SubmitBatch of fanKeys fresh keys ×
// procs {0, 1}, drain all results through one CompletionQueue, release
// every handle. Both processes of a key must decide the same value, one of
// the two proposed.
type fanoutBatch struct {
	p    *pass
	ar   *setagreement.Arena[int]
	q    *setagreement.CompletionQueue[int]
	regs int
	ops  []setagreement.BatchOp[int]
	dec  []int
	errs []error
}

func setupFanoutBatch(p *pass, n int) (instance, error) {
	ar, err := setagreement.NewArena[int](n, 1, setagreement.ArenaOneShot(), setagreement.WithIdleTTL(idleTTL),
		setagreement.WithObjectOptions(p.objectOptions()...))
	if err != nil {
		return nil, err
	}
	return &fanoutBatch{
		p: p, ar: ar, q: setagreement.NewCompletionQueue[int](),
		regs: ar.Object(registersKey).Registers(),
		ops:  make([]setagreement.BatchOp[int], 2*fanKeys),
		dec:  make([]int, 2*fanKeys),
		errs: make([]error, 2*fanKeys),
	}, nil
}

func (w *fanoutBatch) counters() counters { return arenaCounters(w.ar.Stats(), w.regs) }

func (w *fanoutBatch) drive(c *client, b budget) error {
	for {
		for j := 0; j < fanKeys; j++ {
			x := c.keys.next()
			k := key(x)
			w.ops[2*j] = setagreement.BatchOp[int]{Key: k, Proc: 0, Value: value(x)}
			w.ops[2*j+1] = setagreement.BatchOp[int]{Key: k, Proc: 1, Value: 1024 + value(mix(x))}
		}
		req := c.tr.sample()
		start := time.Now()
		t := c.tr.begin()
		batch, err := w.ar.SubmitBatch(w.p.ctx, w.ops)
		c.tr.end(callSubmitBatch, t, req)
		if err != nil {
			return err
		}
		t = c.tr.begin()
		err = batch.Register(w.q)
		c.tr.end(callRegister, t, req)
		if err != nil {
			return err
		}
		for n := range w.ops {
			t = c.tr.begin()
			comp, err := w.q.Next(w.p.ctx)
			c.tr.end(callNext, t, req)
			if err != nil {
				return err
			}
			if n == 0 && c.tr != nil {
				c.tr.timing(ttfdTiming, time.Since(start))
			}
			w.dec[comp.Tag], w.errs[comp.Tag] = comp.Value()
		}
		end := time.Now()
		var opErr error
		for j := 0; j < fanKeys && opErr == nil; j++ {
			if opErr = w.errs[2*j]; opErr == nil {
				if opErr = w.errs[2*j+1]; opErr == nil {
					opErr = checkPair(w.dec[2*j], w.dec[2*j+1], w.ops[2*j].Value, w.ops[2*j+1].Value)
				}
			}
		}
		for i := range w.ops {
			t = c.tr.begin()
			if h := batch.Handle(i); h != nil {
				if err := h.Release(); opErr == nil {
					opErr = err
				}
			}
			c.tr.end(callRelease, t, req)
		}
		now := time.Now()
		c.tr.op(req, start, now)
		c.done(start, end, opErr)
		if b.done(c.ops, now) {
			return nil
		}
	}
}

// --- async-contended -----------------------------------------------------

const (
	asyncObjects = 8
	asyncProcs   = 8
	asyncHandles = asyncObjects * asyncProcs
	// asyncRounds proposals per handle per epoch, each submitted when the
	// handle's previous one completes.
	asyncRounds = 256
)

// asyncContended: one client keeps asyncHandles ProposeAsync calls in
// flight on asyncObjects fresh repeated objects × asyncProcs procs, for
// whole epochs. Per (epoch, object, instance) at most one value may be
// decided, and it must be one of the asyncProcs proposals.
type asyncContended struct {
	p       *pass
	ar      *setagreement.Arena[int]
	q       *setagreement.CompletionQueue[int]
	regs    int
	handles [asyncHandles]*setagreement.Handle[int]
	issued  [asyncHandles]time.Time
	reqs    [asyncHandles]uint64
	rounds  [asyncHandles]int
	table   agreementTable
}

func setupAsyncContended(p *pass, n int) (instance, error) {
	ar, err := setagreement.NewArena[int](n, 1, setagreement.WithIdleTTL(idleTTL),
		setagreement.WithObjectOptions(p.objectOptions()...))
	if err != nil {
		return nil, err
	}
	return &asyncContended{
		p: p, ar: ar, q: setagreement.NewCompletionQueue[int](),
		regs: ar.Object(registersKey).Registers(),
	}, nil
}

func (w *asyncContended) counters() counters { return arenaCounters(w.ar.Stats(), w.regs) }

func (w *asyncContended) drive(c *client, b budget) error {
	for {
		if err := w.epoch(c); err != nil {
			return err
		}
		if b.done(c.ops, time.Now()) {
			return nil
		}
	}
}

// epoch claims every handle on fresh objects, runs asyncRounds proposals
// per handle, then releases them all. Every handle is claimed before the
// first proposal and released after the last: a handle released while a
// peer has yet to claim lets its object idle past the TTL, and the peer
// then claims a fresh generation whose decisions disagree with the old one.
func (w *asyncContended) epoch(c *client) error {
	var seeds [asyncObjects]uint64
	for o := range seeds {
		seeds[o] = c.keys.next()
		t := c.tr.begin()
		obj := w.ar.Object(key(seeds[o]))
		c.tr.end(callObject, t, 0)
		for p := 0; p < asyncProcs; p++ {
			t = c.tr.begin()
			h, err := obj.Proc(p)
			c.tr.end(callProc, t, 0)
			if err != nil {
				return err
			}
			w.handles[o*asyncProcs+p] = h
		}
	}
	w.table.reset(seeds)
	w.rounds = [asyncHandles]int{}
	for tag := range w.handles {
		if err := w.issue(c, tag); err != nil {
			return err
		}
	}
	for left := asyncHandles * asyncRounds; left > 0; left-- {
		t := c.tr.begin()
		comp, err := w.q.Next(w.p.ctx)
		if err != nil {
			return err
		}
		tag := comp.Tag
		c.tr.end(callNext, t, w.reqs[tag])
		got, err := comp.Value()
		end := time.Now()
		if err == nil {
			err = w.table.check(tag/asyncProcs, w.rounds[tag], got)
		}
		c.tr.op(w.reqs[tag], w.issued[tag], end)
		c.done(w.issued[tag], end, err)
		if w.rounds[tag]++; w.rounds[tag] < asyncRounds {
			if err := w.issue(c, tag); err != nil {
				return err
			}
		}
	}
	for _, h := range w.handles {
		t := c.tr.begin()
		err := h.Release()
		c.tr.end(callRelease, t, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// issue submits handle tag's next proposal and registers its future.
func (w *asyncContended) issue(c *client, tag int) error {
	v := w.table.proposal(tag/asyncProcs, w.rounds[tag], tag%asyncProcs)
	req := c.tr.sample()
	w.reqs[tag] = req
	w.issued[tag] = time.Now()
	t := c.tr.begin()
	f := w.handles[tag].ProposeAsync(w.p.ctx, v)
	c.tr.end(callProposeAsync, t, req)
	t = c.tr.begin()
	err := w.q.Register(f, tag)
	c.tr.end(callRegister, t, req)
	return err
}
