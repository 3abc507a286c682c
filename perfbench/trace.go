package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ibflow/internal/sim"
)

// spanKind names what a span covers: a benchmark phase or one call the
// benchmark makes into a layer's public functions.
type spanKind uint8

const (
	spanRound    spanKind = iota // one round of the workload's worlds
	spanNewWorld                 // mpi.NewWorld
	spanRun                      // World.Run
	spanStep                     // one step, first rank in to last rank out
	spanIsend                    // Comm.Isend
	spanIrecv                    // Comm.Irecv
	spanWaitall                  // Comm.Waitall
	spanSend                     // Comm.Send
	spanRecv                     // Comm.Recv
	spanBarrier                  // coll.Barrier
	spanKernel                   // a nas kernel's Run
)

var spanNames = [...]string{"round", "NewWorld", "Run", "step", "Isend", "Irecv", "Waitall", "Send", "Recv", "Barrier", "kernel"}

func (k spanKind) String() string { return spanNames[k] }

// A span is one timed interval of host time, in nanoseconds since the
// tracer's origin. Its id is its index in tracer.spans. A call span's
// parent is the step it ran in, so all spans of one step share that id.
type span struct {
	parent int32
	kind   spanKind
	world  int16 // index of the world in its round's plan
	rank   int32 // -1 for spans that belong to no rank
	step   int32 // -1 outside steps
	start  int64
	end    int64
}

// tracer keeps spans in memory until the run ends. It is only touched
// from the goroutine currently running the simulation (rank procs run
// one at a time), so it needs no locking.
type tracer struct {
	origin time.Time
	spans  []span
	steps  []int32 // span ids of the current world's steps

	// waitVirt sums the simulated time ranks spent blocked in
	// Waitall/Recv (benchmark calls only).
	waitVirt sim.Time
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open records a span that has started and returns its id; close sets
// its end.
func (t *tracer) open(kind spanKind, parent int32, world, rank, step int) int32 {
	t.spans = append(t.spans, span{parent: parent, kind: kind, world: int16(world),
		rank: int32(rank), step: int32(step), start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32) { t.spans[id].end = t.now() }

// rankTrace is one rank's handle on the tracer. A nil *rankTrace records
// nothing and reads no clock, so untraced runs pay one branch per call.
type rankTrace struct {
	tr    *tracer
	world int16
	rank  int32
}

func (t *rankTrace) start() int64 {
	if t == nil {
		return 0
	}
	return t.tr.now()
}

func (t *rankTrace) end(kind spanKind, step int, t0 int64) {
	if t == nil {
		return
	}
	t.tr.spans = append(t.tr.spans, span{parent: t.tr.steps[step], kind: kind, world: t.world,
		rank: t.rank, step: int32(step), start: t0, end: t.tr.now()})
}

func (t *rankTrace) wait(d sim.Time) {
	if t != nil {
		t.tr.waitVirt += d
	}
}

// selfTimes returns every span's self time. Rank procs and the engine
// run one at a time, so host time is one serial timeline, and each
// instant of it belongs to the most recently started span still open.
// For properly nested spans that is a span's duration minus the part its
// children cover. Spans of different ranks interleave instead of
// nesting: a call that parks its rank (Isend charges its software
// overhead by sleeping on the simulated clock) keeps only the time until
// the next span opens, so its self time is its own post and progress
// work plus the engine events that run before the next call starts,
// not the whole interval during which other ranks ran.
func selfTimes(spans []span) []int64 {
	type edge struct {
		t    int64
		id   int32
		open bool
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		edges = append(edges, edge{s.start, int32(i), true}, edge{max(s.end, s.start), int32(i), false})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
	self := make([]int64, len(spans))
	closed := make([]bool, len(spans))
	open := &openSpans{spans: spans}
	for k, e := range edges {
		if k > 0 && e.t > edges[k-1].t {
			for open.Len() > 0 && closed[open.ids[0]] {
				heap.Pop(open)
			}
			if open.Len() > 0 {
				self[open.ids[0]] += e.t - edges[k-1].t
			}
		}
		if e.open {
			heap.Push(open, e.id)
		} else {
			closed[e.id] = true
		}
	}
	return self
}

// openSpans is a heap of span ids, latest start (then latest id) first.
type openSpans struct {
	spans []span
	ids   []int32
}

func (h *openSpans) Len() int { return len(h.ids) }
func (h *openSpans) Less(a, b int) bool {
	sa, sb := h.spans[h.ids[a]].start, h.spans[h.ids[b]].start
	return sa > sb || (sa == sb && h.ids[a] > h.ids[b])
}
func (h *openSpans) Swap(a, b int) { h.ids[a], h.ids[b] = h.ids[b], h.ids[a] }
func (h *openSpans) Push(x any)    { h.ids = append(h.ids, x.(int32)) }
func (h *openSpans) Pop() any {
	x := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return x
}

// writeSpans writes the spans and their self times as CSV into dir.
func writeSpans(dir, name string, spans []span, self []int64, labels []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,kind,world,rank,step,start_ns,end_ns,self_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d,%d,%d,%d\n", i, s.parent, s.kind, labels[s.world],
			s.rank, s.step, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
