package main

import (
	"time"

	"ibflow/internal/chdev"
	"ibflow/internal/nas"
)

// layerMetrics reduces a traced run to the per-layer metrics. Counters and
// simulated results come from the layers' public accessors and are the
// same in every round of a seed. Host times and the collector's figures
// come from the untraced rounds, which tracing cannot inflate; CPU shares
// and call latencies come from the traced rounds.
func layerMetrics(res *result, cfg config, rounds []roundResult) {
	put := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
	var base, traced []roundResult
	for _, r := range rounds {
		if r.Traced {
			traced = append(traced, r)
		} else {
			base = append(base, r)
		}
	}
	// medianOf returns the median over rounds of f.
	medianOf := func(rs []roundResult, f func(roundResult) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	plans := cfg.workload.plan(cfg.seed, planOpts{})

	// Counters and simulated results, summed over the round's worlds.
	var st chdev.Stats
	var events uint64
	var virt time.Duration
	hwm, ranks := 0, 0
	for i, w := range rounds[0].Worlds {
		s := w.Sim.Stats
		st.Conns += s.Conns
		st.MsgsSent += s.MsgsSent
		st.EagerSent += s.EagerSent
		st.Demoted += s.Demoted
		st.Backlogged += s.Backlogged
		st.ECMsSent += s.ECMsSent
		st.GrowthEvents += s.GrowthEvents
		st.LimitEvents += s.LimitEvents
		st.RingSyncs += s.RingSyncs
		st.RNRNaks += s.RNRNaks
		st.Retransmits += s.Retransmits
		st.RegHits += s.RegHits
		st.RegMisses += s.RegMisses
		hwm = max(hwm, s.BufBytesHWM)
		events += w.Sim.Events
		virt += time.Duration(w.Sim.Virt)
		ranks += plans[i].ranks
	}
	runOf := func(r roundResult) float64 { return r.run().Seconds() }
	run := medianOf(base, runOf)
	put("sim.events", float64(events))
	put("sim.host_ns_per_event", ratio(run*1e9, float64(events)))
	put("sim.virt_us", float64(virt)/1e3)
	put("chdev.msgs_sent", float64(st.MsgsSent))
	put("chdev.eager_sent", float64(st.EagerSent))
	put("chdev.demoted", float64(st.Demoted))
	put("chdev.conns", float64(st.Conns))
	put("chdev.first_step_s", medianOf(base, func(r roundResult) float64 {
		var d time.Duration
		for _, w := range r.Worlds {
			d += w.FirstStep
		}
		return d.Seconds()
	}))
	put("chdev.buf_kb_hwm", float64(hwm)/1024)
	put("core.backlogged", float64(st.Backlogged))
	put("core.ecms", float64(st.ECMsSent))
	put("core.growth_events", float64(st.GrowthEvents))
	put("core.limit_events", float64(st.LimitEvents))
	put("core.ring_syncs", float64(st.RingSyncs))
	put("core.ctrl_per_msg", ratio(float64(st.ECMsSent+st.RingSyncs), float64(st.MsgsSent)))
	put("ib.rnr_naks", float64(st.RNRNaks))
	put("ib.retransmits", float64(st.Retransmits))
	put("ib.rnr_per_msg", ratio(float64(st.RNRNaks), float64(st.MsgsSent)))
	put("mem.reg_hit_ratio", ratio(float64(st.RegHits), float64(st.RegHits+st.RegMisses)))

	// CPU shares by layer, from the traced rounds' profiles. The rest is
	// runtime work outside any layer, and the layers out of scope.
	cpu := newCPUShares()
	for _, r := range traced {
		cpu.merge(r.CPU)
	}
	other := 100 - cpu.pct("bench")
	for _, layer := range []string{"sim", "chdev", "mpi", "core", "ib", "coll", "nas", "mem", "gc"} {
		put(layer+".cpu_pct", cpu.pct(layer))
		other -= cpu.pct(layer)
	}
	put("sim.handoff_cpu_pct", cpu.pct("handoff"))
	put("bench.cpu_pct", cpu.pct("bench"))
	put("bench.other_cpu_pct", other)

	// Call latencies over the traced rounds' steady steps.
	calls := map[string][]float64{}
	for _, r := range traced {
		for kind, xs := range r.Calls {
			calls[kind] = append(calls[kind], xs...)
		}
	}
	put("mpi.isend_ns_p50", quantile(calls[spanIsend.String()], 0.5))
	put("mpi.isend_ns_p99", quantile(calls[spanIsend.String()], 0.99))
	put("mpi.irecv_ns_p50", quantile(calls[spanIrecv.String()], 0.5))
	put("mpi.irecv_ns_p99", quantile(calls[spanIrecv.String()], 0.99))
	put("mpi.wait_virt_us", medianOf(traced, func(r roundResult) float64 {
		return float64(r.WaitVirt) / 1e3 / float64(ranks)
	}))

	// Kernel host times: the CPU time of each kernel's steady step.
	for _, app := range nas.Apps() {
		put("nas."+app.Name+"_s", medianOf(base, func(r roundResult) float64 {
			for i, w := range r.Worlds {
				if plans[i].label == "nas."+app.Name {
					return sumDurations(w.RTT).Seconds()
				}
			}
			return 0
		}))
	}

	// The Go runtime and the benchmark itself.
	put("gc.cycles", medianOf(base, func(r roundResult) float64 { return float64(r.GCN) }))
	put("gc.pause_ms", medianOf(base, func(r roundResult) float64 { return float64(r.GCNs) / 1e6 }))
	put("bench.trace_overhead_pct", 100*(ratio(medianOf(traced, runOf), run)-1))
	rtt := 0
	for _, r := range base {
		for _, w := range r.Worlds {
			rtt += len(w.RTT)
		}
	}
	put("bench.rtt_samples", float64(rtt))
	put("bench.fail_frac", ratio(float64(res.Failed), float64(res.Attempted)))
}

func sumDurations(ds []time.Duration) (t time.Duration) {
	for _, d := range ds {
		t += d
	}
	return t
}
