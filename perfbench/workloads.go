package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
)

// A workload is one set of generated inputs the benchmark runs. Every
// workload is a closed loop: each rank waits for its step to complete
// before it starts the next one.
type workload struct {
	name string
	// why says what the workload stresses and how it uses the seed; it
	// is the one-line "why" of BENCHMARK.json.
	why string
	// plan generates the workload's inputs from the seed and returns the
	// worlds of one round, in the order they run.
	plan func(seed uint64, o planOpts) []worldPlan
}

// planOpts shrinks a workload for the benchmark's own tests: it keeps the
// shape of every step and only changes how many steady steps run.
type planOpts struct {
	steadySteps int // 0 = the workload's default
}

func (o planOpts) steps(def int) int {
	if o.steadySteps > 0 {
		return 1 + o.steadySteps
	}
	return 1 + def
}

// A worldPlan is one mpi.World the harness builds and runs: step 0 is
// the warm-up step, the rest are steady steps.
type worldPlan struct {
	label string // "incast_storm", "nas.IS", ...
	ranks int
	opts  mpi.Options
	steps int
	// rttWall measures each steady step as rank 0's round trip on the
	// wall clock; it suits steps of microseconds. Longer steps are
	// measured as the job's CPU time.
	rttWall bool
	// rank returns rank c's step function. It runs inside the rank's
	// main, so its allocations count in the warm-up step.
	rank func(c *mpi.Comm, t *rankTrace) stepFunc
}

// stepFunc runs step s on one rank and reports a wrong payload, status
// or verification result as an error.
type stepFunc func(s int) error

var workloads = []workload{
	{
		name: "incast_storm",
		why:  "32 eagerly wired ranks, 8 peers each, Static(8): per-pass sweep of all slots and posted-queue scans, credits/backlog/ECMs fire; seed permutes peers, draws sizes",
		plan: planIncast,
	},
	{
		name: "ondemand_srq",
		why:  "64 on-demand ranks, 8 peers each, Shared(16,96): connections come up mid-run, SRQ pool and RNR retry carry flow control; seed permutes peers, draws sizes",
		plan: planOnDemand,
	},
	{
		name: "pingpong",
		why:  "2 ranks, RDMA(8,1024) blocking round trips: every message parks and resumes a rank proc with one peer; seed draws sizes that fit a ring slot",
		plan: planPingPong,
	},
	{
		name: "nas_suite",
		why:  "the seven NAS kernels, class S, paper process counts, Dynamic(1,300), self-verified: the application mix; inputs fixed by class, seed unused",
		plan: planNAS,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Storm shape shared by incast_storm and ondemand_srq: every rank sends
// stormMsgs eager messages to each of stormPeers strided peers per step.
// Twelve messages overrun a Static(8) connection's credits, so backlog
// and ECMs fire, and eight peers of 32 or 64 ranks leave most of the
// slots each progress pass sweeps idle.
//
// The storms are far smaller than BENCH_scaling.json's 256- and 512-rank
// rows because the benchmark only counts samples short enough to miss the
// host's slow phases (quiet in metrics.go). A 32-rank world runs for
// about 0.1 s and a 64-rank on-demand world for about 0.2 s; at 64 and
// 128 ranks with 24 peers each they ran for 1 and 2 s, and their medians
// over a 28 s run spread by 0.15 between runs of the same code.
const (
	stormPeers   = 8
	stormMsgs    = 12
	stormMaxSize = 512 // bytes, well below the 2000-byte eager threshold
	stormSteady  = 3   // steady steps per world
)

// fatTree returns options for the large-cluster fabric of
// BENCH_scaling.json, radix-32 leaves 2:1 oversubscribed, but with one
// rail instead of two. A multi-rail port books each packet on the
// earliest-free rail, so a short packet can overtake a longer one of the
// same queue pair; the receiving QP then drops the early packet as out of
// order and nothing retransmits it. Storms of mixed-size messages
// deadlock on two rails within the first step (ib.port.reserve and
// QP.deliver), so the storms run single-rail until that is fixed.
func fatTree(fc core.Params) mpi.Options {
	opts := mpi.DefaultOptions(fc)
	opts.IB.Topology = ib.TopoFatTree
	opts.IB.LeafRadix = 32
	opts.IB.Oversub = 2
	opts.IB.Rails = 1
	opts.Settle = true // World.Audit needs a settled job
	return opts
}

func planIncast(seed uint64, o planOpts) []worldPlan {
	return []worldPlan{newStorm(seed, 32, o.steps(stormSteady)).plan("incast_storm", fatTree(core.Static(8)))}
}

func planOnDemand(seed uint64, o planOpts) []worldPlan {
	opts := fatTree(core.Shared(16, 96))
	opts.Chan.OnDemand = true
	return []worldPlan{newStorm(seed, 64, o.steps(stormSteady)).plan("ondemand_srq", opts)}
}

// storm is the generated input of a storm world: a seeded peer map, a
// size for every (sender, peer, message) and a payload pattern.
type storm struct {
	n, steps int
	pattern  *pattern
	sendTo   [][]int    // per rank, ascending
	recvFrom [][]int    // per rank, ascending
	sendSize [][]uint16 // per rank, [j*stormMsgs+m] for sendTo[j]
	recvSize [][]uint16 // per rank, [j*stormMsgs+m] for recvFrom[j]
}

// newStorm draws the peer map and sizes. Ranks sit on a seeded ring
// permutation; each sends to the stormPeers ranks at multiples of a fixed
// stride after it on the ring, so where the job spans several leaf
// switches (64 ranks fill two radix-32 leaves; 32 ranks fit on one) the
// peer set spans them too, and every rank has exactly stormPeers senders. Peers are posted in
// ascending rank order, so low-numbered ranks absorb everyone's opening
// burst: the incast is part of the workload.
func newStorm(seed uint64, n, steps int) *storm {
	rng := rand.New(rand.NewPCG(seed, 0x5702))
	ring := rng.Perm(n)
	pos := make([]int, n)
	for p, r := range ring {
		pos[r] = p
	}
	stride := (n - 1) / stormPeers
	st := &storm{
		n: n, steps: steps, pattern: newPattern(seed),
		sendTo: make([][]int, n), recvFrom: make([][]int, n),
		sendSize: make([][]uint16, n), recvSize: make([][]uint16, n),
	}
	for r := 0; r < n; r++ {
		for j := 1; j <= stormPeers; j++ {
			st.sendTo[r] = append(st.sendTo[r], ring[(pos[r]+j*stride)%n])
			st.recvFrom[r] = append(st.recvFrom[r], ring[((pos[r]-j*stride)%n+n)%n])
		}
		sort.Ints(st.sendTo[r])
		sort.Ints(st.recvFrom[r])
	}
	for r := 0; r < n; r++ {
		sz := make([]uint16, stormPeers*stormMsgs)
		for i := range sz {
			sz[i] = uint16(1 + rng.IntN(stormMaxSize))
		}
		st.sendSize[r] = sz
	}
	for r := 0; r < n; r++ {
		rs := make([]uint16, 0, stormPeers*stormMsgs)
		for _, src := range st.recvFrom[r] {
			j := sort.SearchInts(st.sendTo[src], r)
			rs = append(rs, st.sendSize[src][j*stormMsgs:(j+1)*stormMsgs]...)
		}
		st.recvSize[r] = rs
	}
	return st
}

func (st *storm) plan(label string, opts mpi.Options) worldPlan {
	return worldPlan{label: label, ranks: st.n, opts: opts, steps: st.steps, rank: st.rank}
}

// rank pre-posts a receive for every expected message, Isends its own,
// calls Waitall and checks every status and payload.
func (st *storm) rank(c *mpi.Comm, t *rankTrace) stepFunc {
	me := c.Rank()
	to, from := st.sendTo[me], st.recvFrom[me]
	sendBufs := slab(st.sendSize[me])
	recvBufs := slab(st.recvSize[me])
	reqs := make([]*mpi.Request, 0, len(sendBufs)+len(recvBufs))
	return func(s int) error {
		reqs = reqs[:0]
		for j, src := range from {
			for m := 0; m < stormMsgs; m++ {
				t0 := t.start()
				reqs = append(reqs, c.Irecv(src, s*stormMsgs+m, recvBufs[j*stormMsgs+m]))
				t.end(spanIrecv, s, t0)
			}
		}
		for j, dst := range to {
			for m := 0; m < stormMsgs; m++ {
				buf := sendBufs[j*stormMsgs+m]
				st.pattern.fill(buf, me, dst, s, m)
				t0 := t.start()
				reqs = append(reqs, c.Isend(dst, s*stormMsgs+m, buf))
				t.end(spanIsend, s, t0)
			}
		}
		t0 := t.start()
		v0 := c.Time()
		c.Waitall(reqs...)
		t.wait(c.Time() - v0)
		t.end(spanWaitall, s, t0)
		for j, src := range from {
			for m := 0; m < stormMsgs; m++ {
				k := j*stormMsgs + m
				if err := st.pattern.check(reqs[k].Status(), recvBufs[k], src, me, s*stormMsgs+m, s, m); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// slab cuts one allocation into buffers of the given sizes, so a rank's
// buffers cost a constant number of allocations whatever the step count.
func slab(sizes []uint16) [][]byte {
	total := 0
	for _, n := range sizes {
		total += int(n)
	}
	mem := make([]byte, total)
	bufs := make([][]byte, len(sizes))
	off := 0
	for i, n := range sizes {
		bufs[i] = mem[off : off+int(n) : off+int(n)]
		off += int(n)
	}
	return bufs
}

// pingSteady is the number of steady round trips per pingpong world. A
// world runs for about 40 ms, about as long as one of the host's slow
// phases, so many of its rounds fall in a quiet one (see quiet in
// metrics.go).
const pingSteady = 5000

// ping is the generated input of the pingpong world: one size per step.
type ping struct {
	steps   int
	pattern *pattern
	size    []uint16
}

func planPingPong(seed uint64, o planOpts) []worldPlan {
	rng := rand.New(rand.NewPCG(seed, 0x9199))
	pp := &ping{steps: o.steps(pingSteady), pattern: newPattern(seed)}
	maxSize := 1024 - chdev.HeaderSize // one ring slot
	pp.size = make([]uint16, pp.steps)
	for i := range pp.size {
		pp.size[i] = uint16(1 + rng.IntN(maxSize))
	}
	opts := mpi.DefaultOptions(core.RDMA(8, 1024))
	opts.Settle = true
	return []worldPlan{{label: "pingpong", ranks: 2, opts: opts, steps: pp.steps, rttWall: true, rank: pp.rank}}
}

// rank: rank 0 sends and waits for the echo, rank 1 receives and
// answers with its own payload, both with blocking Send/Recv.
func (pp *ping) rank(c *mpi.Comm, t *rankTrace) stepFunc {
	me := c.Rank()
	peer := 1 - me
	sbuf := make([]byte, 1024)
	rbuf := make([]byte, 1024)
	// The step number is the tag: at most pingSteady+1, far below the
	// tags coll reserves.
	send := func(s int) {
		buf := sbuf[:pp.size[s]]
		pp.pattern.fill(buf, me, peer, s, 0)
		t0 := t.start()
		c.Send(peer, s, buf)
		t.end(spanSend, s, t0)
	}
	recv := func(s int) error {
		buf := rbuf[:pp.size[s]]
		t0 := t.start()
		v0 := c.Time()
		st := c.Recv(peer, s, buf)
		t.wait(c.Time() - v0)
		t.end(spanRecv, s, t0)
		return pp.pattern.check(st, buf, peer, me, s, s, 0)
	}
	return func(s int) error {
		if me == 0 {
			send(s)
			return recv(s)
		}
		err := recv(s)
		send(s)
		return err
	}
}

// nasSteady runs each kernel once more after its warm-up run.
const nasSteady = 1

// The paper ran class A. The kernels run class S here: a class S world
// runs for a few milliseconds, short enough for its samples to tell the
// host's slow phases apart (quiet in metrics.go), where a class A world
// ran for up to half a second and the suite's median spread by a fifth
// between runs of the same code. Class S still takes every message path
// class A takes: eager and rendezvous sends with memory registration,
// dynamic credit growth, ECMs, backlog and RNR retries.

func planNAS(_ uint64, o planOpts) []worldPlan {
	var plans []worldPlan
	for _, app := range nas.Apps() {
		// The paper's process counts: 8 ranks, except BT and SP, which
		// need a square count and run 16 processes at 2 per node.
		procs, rpn := 8, 1
		if app.Name == "BT" || app.Name == "SP" {
			procs, rpn = 16, 2
		}
		opts := mpi.DefaultOptions(core.Dynamic(1, 300))
		opts.RanksPerNode = rpn
		opts.Settle = true
		plans = append(plans, worldPlan{
			label: "nas." + app.Name, ranks: procs, opts: opts, steps: o.steps(nasSteady),
			rank: func(c *mpi.Comm, t *rankTrace) stepFunc {
				return func(s int) error {
					t0 := t.start()
					err := app.Run(c, nas.ClassS)
					t.end(spanKernel, s, t0)
					if err != nil {
						return fmt.Errorf("%s verification: %w", app.Name, err)
					}
					return nil
				}
			},
		})
	}
	return plans
}

// pattern is the seeded payload source: the bytes of a message are a
// window of a random buffer, at an offset hashed from (sender, receiver,
// step, message), so every message of every step has its own content
// and a stale or misrouted buffer fails the check.
type pattern struct {
	seed uint64
	buf  []byte
}

const patternSpan = 1 << 16

func newPattern(seed uint64) *pattern {
	rng := rand.New(rand.NewPCG(seed, 0xfa7))
	p := &pattern{seed: seed, buf: make([]byte, patternSpan+2048)}
	for i := range p.buf {
		p.buf[i] = byte(rng.Uint32())
	}
	return p
}

func (p *pattern) window(n, src, dst, step, msg int) []byte {
	h := p.seed ^ uint64(src)<<40 ^ uint64(dst)<<20 ^ uint64(step)<<4 ^ uint64(msg)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	off := int(h % patternSpan)
	return p.buf[off : off+n]
}

func (p *pattern) fill(buf []byte, src, dst, step, msg int) {
	copy(buf, p.window(len(buf), src, dst, step, msg))
}

// check verifies a completed receive: status source, tag and length, and
// the payload the sender wrote.
func (p *pattern) check(st mpi.Status, buf []byte, src, dst, tag, step, msg int) error {
	if st.Source != src || st.Tag != tag || st.Len != len(buf) {
		return fmt.Errorf("rank %d step %d: status %+v, want source %d tag %d len %d", dst, step, st, src, tag, len(buf))
	}
	if !bytes.Equal(buf, p.window(len(buf), src, dst, step, msg)) {
		return fmt.Errorf("rank %d step %d: payload from %d (msg %d) differs from the pattern", dst, step, src, msg)
	}
	return nil
}
