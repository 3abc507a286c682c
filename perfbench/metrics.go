package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json lists
// the same names, units and directions; the benchmark's tests keep the
// two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves and flat record, for a per-layer metric, which end-to-end
	// metric it should move on which workload, and where it should stay
	// flat. They are the prediction a change to that layer is judged by.
	moves, flat string
}

// The end-to-end metrics are host-measured, with tracing off, and reduced
// over the run's rounds as endToEndMetrics describes (harness.go says
// which clock each uses):
//
//   - setup_s: CPU time in mpi.NewWorld, summed over a round's worlds.
//   - run_s: CPU time in World.Run, summed over a round's worlds; it
//     includes the warm-up step and finalize/settle.
//   - rtt_p50_us, rtt_p99_us: host time of one steady closed-loop step.
//     On pingpong that is rank 0's blocking round trip, on the wall
//     clock; elsewhere a step lasts seconds and is the job's CPU time
//     from the first rank entering it to the last rank leaving it.
//   - allocs_per_msg: heap objects allocated during the steady steps over
//     the device messages (chdev Stats.MsgsSent) sent in them.
//   - heap_mb: live heap a world pins after NewWorld, after a collection,
//     in MiB (the largest world of a round).
//
// The simulated results (makespan, buffer high-water mark, counters) are
// per-layer metrics: they repeat exactly for a seed, the run checks that
// they do, and a failure shows in the failed count.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rtt_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "rtt_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_msg", unit: "objects", better: "lower", bound: 0.1},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.1},
}

var perLayer = []metricDef{
	// sim: event core and proc coroutines.
	{name: "sim.events", unit: "count", better: "lower",
		moves: "run_s on all workloads (work done)", flat: "stays put unless the simulated schedule changes"},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower",
		moves: "rtt_p50_us on pingpong, run_s on nas_suite", flat: "incast_storm"},
	{name: "sim.cpu_pct", unit: "%", better: "lower",
		moves: "rtt_p50_us on pingpong, run_s on nas_suite", flat: "incast_storm"},
	{name: "sim.handoff_cpu_pct", unit: "%", better: "lower",
		moves: "rtt_p50_us and rtt_p99_us on pingpong", flat: "incast_storm"},
	{name: "sim.virt_us", unit: "us", better: "lower",
		moves: "simulated makespan; changes only with the modelled schedule", flat: "every workload under a host-only change"},
	// chdev: channel device and progress engine.
	{name: "chdev.cpu_pct", unit: "%", better: "lower",
		moves: "run_s on incast_storm and ondemand_srq (per-pass slot sweep)", flat: "pingpong"},
	{name: "chdev.msgs_sent", unit: "count", better: "lower", moves: "work counter", flat: "every workload under a host-only change"},
	{name: "chdev.eager_sent", unit: "count", better: "lower", moves: "work counter", flat: "every workload under a host-only change"},
	{name: "chdev.demoted", unit: "count", better: "lower", moves: "virt_us on nas_suite", flat: "every workload under a host-only change"},
	{name: "chdev.conns", unit: "count", better: "lower", moves: "setup_s and heap_mb on incast_storm", flat: "ondemand_srq setup"},
	{name: "chdev.first_step_s", unit: "s", better: "lower",
		moves: "run_s on ondemand_srq (on-demand connects)", flat: "pingpong"},
	{name: "chdev.buf_kb_hwm", unit: "KB", better: "lower",
		moves: "per-process receive-buffer memory (Table 2) on incast_storm and nas_suite", flat: "every workload under a host-only change"},
	// mpi: point-to-point and matching.
	{name: "mpi.cpu_pct", unit: "%", better: "lower", moves: "run_s on incast_storm (posted-queue scans)", flat: "pingpong"},
	{name: "mpi.isend_ns_p50", unit: "ns", better: "lower", moves: "run_s on incast_storm and ondemand_srq", flat: "nas_suite"},
	{name: "mpi.isend_ns_p99", unit: "ns", better: "lower", moves: "run_s on incast_storm and ondemand_srq", flat: "nas_suite"},
	{name: "mpi.irecv_ns_p50", unit: "ns", better: "lower", moves: "run_s on incast_storm (96 posted receives per rank)", flat: "pingpong"},
	{name: "mpi.irecv_ns_p99", unit: "ns", better: "lower", moves: "run_s on incast_storm (96 posted receives per rank)", flat: "pingpong"},
	{name: "mpi.wait_virt_us", unit: "us", better: "lower", moves: "sim.virt_us on every workload", flat: "every workload under a host-only change"},
	// core: flow-control accounting.
	{name: "core.cpu_pct", unit: "%", better: "lower", moves: "run_s on incast_storm (credits)", flat: "pingpong"},
	{name: "core.backlogged", unit: "count", better: "lower", moves: "sim.virt_us on incast_storm", flat: "pingpong"},
	{name: "core.ecms", unit: "count", better: "lower", moves: "sim.virt_us on incast_storm and nas_suite", flat: "ondemand_srq"},
	{name: "core.growth_events", unit: "count", better: "lower", moves: "chdev.buf_kb_hwm on nas_suite (dynamic growth)", flat: "incast_storm"},
	{name: "core.limit_events", unit: "count", better: "lower", moves: "sim.virt_us on ondemand_srq (SRQ limit)", flat: "incast_storm"},
	{name: "core.ring_syncs", unit: "count", better: "lower", moves: "sim.virt_us on pingpong (ring head sync)", flat: "incast_storm"},
	{name: "core.ctrl_per_msg", unit: "ratio", better: "lower", moves: "sim.virt_us on incast_storm and nas_suite (Table 1)", flat: "ondemand_srq"},
	// ib: verbs and fabric model.
	{name: "ib.cpu_pct", unit: "%", better: "lower", moves: "run_s on ondemand_srq", flat: "pingpong"},
	{name: "ib.rnr_naks", unit: "count", better: "lower", moves: "run_s and sim.virt_us on ondemand_srq", flat: "zero on incast_storm and pingpong; a few dozen on nas_suite"},
	{name: "ib.retransmits", unit: "count", better: "lower", moves: "run_s and sim.virt_us on ondemand_srq", flat: "zero on incast_storm and pingpong; a few dozen on nas_suite"},
	{name: "ib.rnr_per_msg", unit: "ratio", better: "lower", moves: "run_s and sim.virt_us on ondemand_srq", flat: "zero on incast_storm and pingpong; a few dozen on nas_suite"},
	// coll and nas.
	{name: "coll.cpu_pct", unit: "%", better: "lower", moves: "run_s on nas_suite", flat: "incast_storm"},
	{name: "nas.cpu_pct", unit: "%", better: "lower", moves: "run_s on nas_suite", flat: "zero on the other workloads"},
	{name: "nas.IS_s", unit: "s", better: "lower", moves: "run_s on nas_suite", flat: "zero on the other workloads"},
	{name: "nas.FT_s", unit: "s", better: "lower", moves: "run_s on nas_suite", flat: "zero on the other workloads"},
	{name: "nas.LU_s", unit: "s", better: "lower", moves: "run_s on nas_suite", flat: "zero on the other workloads"},
	{name: "nas.CG_s", unit: "s", better: "lower", moves: "run_s on nas_suite", flat: "zero on the other workloads"},
	{name: "nas.MG_s", unit: "s", better: "lower", moves: "run_s on nas_suite", flat: "zero on the other workloads"},
	{name: "nas.BT_s", unit: "s", better: "lower", moves: "run_s on nas_suite", flat: "zero on the other workloads"},
	{name: "nas.SP_s", unit: "s", better: "lower", moves: "run_s on nas_suite", flat: "zero on the other workloads"},
	// mem: buffer pool and registration cache.
	{name: "mem.cpu_pct", unit: "%", better: "lower", moves: "run_s on nas_suite (rendezvous registration)", flat: "pingpong"},
	{name: "mem.reg_hit_ratio", unit: "ratio", better: "higher", moves: "run_s on nas_suite", flat: "zero on the eager-only workloads"},
	// gc: the Go runtime's collector (not a module).
	{name: "gc.cpu_pct", unit: "%", better: "lower", moves: "allocs_per_msg and rtt_p99_us on pingpong, setup_s and heap_mb on incast_storm", flat: "nas_suite"},
	{name: "gc.cycles", unit: "count", better: "lower", moves: "allocs_per_msg on pingpong, heap_mb on incast_storm", flat: "nas_suite"},
	{name: "gc.pause_ms", unit: "ms", better: "lower", moves: "rtt_p99_us on pingpong, setup_s on incast_storm", flat: "nas_suite"},
	// bench: the benchmark itself.
	{name: "bench.cpu_pct", unit: "%", better: "lower", moves: "run_s (payload fill and checks)", flat: "every workload under a program change"},
	{name: "bench.other_cpu_pct", unit: "%", better: "lower", moves: "run_s (runtime work outside any layer)", flat: "-"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", moves: "traced run_s against untraced run_s", flat: "-"},
	{name: "bench.rtt_samples", unit: "count", better: "higher", moves: "sample count behind rtt_p50_us and rtt_p99_us", flat: "-"},
	{name: "bench.fail_frac", unit: "ratio", better: "lower", moves: "failed steps over attempted steps; 0 on correct code", flat: "-"},
}

// A shared host slows this program in phases. For tens of milliseconds at
// a time the goroutine handoffs and indirect calls the simulator is built
// on run about half again as slow, while plain arithmetic and
// cache-resident memory loops keep their speed; the slow share drifts
// between a quarter and nearly all of the time. A figure that mixes the
// phases follows that share: medians over rounds of a second or more
// moved by a sixth to a third between runs of the same code, and a median
// of pingpong's round trips jumps between its two speeds when the slow
// share nears one half. The quiet speed stays put. So every world the
// benchmark times is short, a few to a hundred milliseconds, and only
// its quiet samples count: a sample is quiet when it is within quietSlack
// of the quickest sample of the same work in the run. Pingpong's round
// trips are cut into windows of quietWindow, a few milliseconds, and a
// window is quiet when its median is within quietSlack of the lowest
// window median; a quantile of the pooled round trips would still take in
// the slow samples of windows that straddle a phase change, so each
// round-trip quantile is its median over the quiet windows. A program
// change moves both phases alike, so the quiet figure moves with it; on a
// host without slow phases every sample is quiet and nothing is dropped.
const (
	quietWindow = 500
	quietSlack  = 0.2
)

// quiet returns the xs within quietSlack of the smallest, in order.
func quiet(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	lim := slices.Min(xs) * (1 + quietSlack)
	var q []float64
	for _, x := range xs {
		if x <= lim {
			q = append(q, x)
		}
	}
	return q
}

// quietWindows cuts each round's samples into windows of quietWindow
// (the last one of a round may be shorter) and returns the quiet ones.
func quietWindows(rounds [][]float64) [][]float64 {
	var windows [][]float64
	var meds []float64
	for _, xs := range rounds {
		for i := 0; i < len(xs); i += quietWindow {
			w := xs[i:min(i+quietWindow, len(xs))]
			windows = append(windows, w)
			meds = append(meds, median(w))
		}
	}
	if len(meds) == 0 {
		return nil
	}
	lim := slices.Min(meds) * (1 + quietSlack)
	var q [][]float64
	for i, w := range windows {
		if meds[i] <= lim {
			q = append(q, w)
		}
	}
	return q
}

// windowQuantile returns the median over windows of each window's
// q-quantile.
func windowQuantile(windows [][]float64, q float64) float64 {
	xs := make([]float64, len(windows))
	for i, w := range windows {
		xs[i] = quantile(w, q)
	}
	return median(xs)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
