package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"ibflow/internal/chdev"
	"ibflow/internal/coll"
	"ibflow/internal/mpi"
	"ibflow/internal/sim"
)

// Host time is measured two ways. A span of seconds (set-up, a run, a
// storm step) is measured as process CPU time: user plus system time of
// every thread, which leaves out the time a shared host's hypervisor
// gives the CPU to other guests, so it repeats far better than the wall
// clock. It counts the garbage collector's work, which is real host cost.
// A round trip of microseconds is measured on the wall clock: it rarely
// straddles a stolen slice, so its median is steady too.

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simOutputs is everything a world computes in simulated terms. It is
// deterministic per seed, so every round of a run must reproduce the
// first one exactly.
type simOutputs struct {
	Virt   sim.Time // makespan
	Events uint64   // events the engine dispatched
	Stats  chdev.Stats
}

// worldResult is what the harness measured on one world. Durations are
// CPU time unless noted. Rounds run in child processes, which report it
// as JSON.
type worldResult struct {
	Setup     time.Duration // mpi.NewWorld
	Run       time.Duration // World.Run: warm-up, steady steps, finalize
	FirstStep time.Duration // Run start to the last rank leaving step 0
	Heap      uint64        // live heap bytes the world pins after NewWorld

	SteadyAllocs uint64 // heap objects allocated during the steady steps
	SteadyMsgs   uint64 // device messages sent during the steady steps
	// RTT holds one sample per steady step: rank 0's round trip on the
	// wall clock for plans with rttWall, else the job's CPU time from
	// the first rank entering the step to the last rank leaving it.
	RTT []time.Duration

	Steps, Failed int
	Err           string // first failure, for the report
	Sim           simOutputs
}

// harness drives one world: it wraps the plan's step function with the
// step bookkeeping every workload shares. Rank procs run one at a time,
// so its fields need no locking.
type harness struct {
	plan  worldPlan
	w     *mpi.World
	tr    *tracer // nil when untraced
	world int

	runStart  time.Duration // CPU time at Run start
	firstStep time.Duration
	entered   []int // ranks that entered each step
	left      []int // ranks that left each step
	stepStart []time.Duration
	failed    []bool
	err       error

	mallocs0, msgs0 uint64
	mallocs1, msgs1 uint64
	rtt             []time.Duration
	mem             runtime.MemStats
}

// setupWorld builds the plan's world, timing mpi.NewWorld alone. The heap
// is collected before, so earlier worlds' garbage does not bill this one,
// and after, to read what the world pins.
func setupWorld(plan worldPlan) (w *mpi.World, setup, wall time.Duration, heap uint64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	c0, t0 := cpuTime(), time.Now()
	w = mpi.NewWorld(plan.ranks, plan.opts)
	setup, wall = cpuTime()-c0, time.Since(t0)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > before {
		heap = ms.HeapAlloc - before
	}
	return w, setup, wall, heap
}

// runWorld sets up and runs one world of a round. With a tracer it
// records spans under the round span.
func runWorld(plan worldPlan, world int, tr *tracer, round int32) worldResult {
	var res worldResult
	var nw int32
	if tr != nil {
		nw = tr.open(spanNewWorld, round, world, -1, -1)
	}
	w, setup, wall, heap := setupWorld(plan)
	if tr != nil {
		// NewWorld's span must not include the heap measurement.
		tr.spans[nw].end = tr.spans[nw].start + int64(wall)
	}
	res.Setup, res.Heap = setup, heap

	h := &harness{
		plan: plan, w: w, tr: tr, world: world,
		entered:   make([]int, plan.steps),
		left:      make([]int, plan.steps),
		stepStart: make([]time.Duration, plan.steps),
		failed:    make([]bool, plan.steps),
		rtt:       make([]time.Duration, 0, plan.steps),
	}
	var runID int32
	if tr != nil {
		runID = tr.open(spanRun, round, world, -1, -1)
		tr.steps = tr.steps[:0]
		for s := 0; s < plan.steps; s++ {
			// Step spans start when their first rank enters; reserve
			// their ids now so call spans can name their parent.
			tr.steps = append(tr.steps, int32(len(tr.spans)))
			tr.spans = append(tr.spans, span{parent: runID, kind: spanStep, world: int16(world), rank: -1, step: int32(s)})
		}
	}
	h.runStart = cpuTime()
	err := w.Run(h.main)
	res.Run = cpuTime() - h.runStart
	if tr != nil {
		tr.close(runID)
	}

	res.FirstStep = h.firstStep
	res.RTT = h.rtt
	res.SteadyAllocs = h.mallocs1 - h.mallocs0
	res.SteadyMsgs = h.msgs1 - h.msgs0
	res.Steps = plan.steps
	res.Sim = simOutputs{Virt: w.Time(), Events: w.Engine().EventsFired(), Stats: w.Stats()}
	for _, f := range h.failed {
		if f {
			res.Failed++
		}
	}
	if h.err != nil {
		res.Err = h.err.Error()
	}
	if err == nil {
		err = w.Audit()
	}
	if err != nil {
		// A failed run or audit fails every step of the world.
		res.Failed, res.Err = plan.steps, fmt.Sprintf("%s: %v", plan.label, err)
	}
	return res
}

// main is every rank's MPI main: the plan's steps, with a barrier closing
// the warm-up step so steady steps start from a quiet job (connections
// up, freelists filled).
func (h *harness) main(c *mpi.Comm) {
	me := c.Rank()
	var rt *rankTrace
	if h.tr != nil {
		rt = &rankTrace{tr: h.tr, world: int16(h.world), rank: int32(me)}
	}
	step := h.plan.rank(c, rt)
	for s := 0; s < h.plan.steps; s++ {
		h.enter(s)
		var t0 time.Time
		if me == 0 && h.plan.rttWall {
			t0 = time.Now()
		}
		if err := step(s); err != nil {
			h.fail(s, err)
		}
		if me == 0 && h.plan.rttWall && s > 0 {
			h.rtt = append(h.rtt, time.Since(t0))
		}
		if s == 0 {
			b0 := rt.start()
			coll.Barrier(c)
			rt.end(spanBarrier, 0, b0)
			if h.mallocs0 == 0 {
				// The first rank out of the barrier opens the steady
				// window.
				h.mallocs0, h.msgs0 = h.snapshot()
			}
		}
		h.leave(s)
	}
}

func (h *harness) enter(s int) {
	h.entered[s]++
	if h.entered[s] > 1 {
		return
	}
	if !h.plan.rttWall {
		h.stepStart[s] = cpuTime()
	}
	if h.tr != nil {
		h.tr.spans[h.tr.steps[s]].start = h.tr.now()
	}
}

func (h *harness) leave(s int) {
	h.left[s]++
	if h.left[s] < h.plan.ranks {
		return
	}
	if h.tr != nil {
		h.tr.close(h.tr.steps[s])
	}
	if s == 0 {
		h.firstStep = cpuTime() - h.runStart
	} else if !h.plan.rttWall {
		h.rtt = append(h.rtt, cpuTime()-h.stepStart[s])
	}
	if s == h.plan.steps-1 {
		h.mallocs1, h.msgs1 = h.snapshot()
	}
}

// snapshot reads the process's heap-object count and the job's device
// message count at the same instant.
func (h *harness) snapshot() (mallocs, msgs uint64) {
	runtime.ReadMemStats(&h.mem)
	return h.mem.Mallocs, h.w.Stats().MsgsSent
}

func (h *harness) fail(s int, err error) {
	h.failed[s] = true
	if h.err == nil {
		h.err = fmt.Errorf("%s: %w", h.plan.label, err)
	}
}
