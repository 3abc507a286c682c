package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"ibflow/internal/mpi"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run spawns its set-up children.
func TestMain(m *testing.M) {
	if slices.ContainsFunc(os.Args, func(a string) bool { return strings.HasPrefix(a, "--child-") }) {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// short runs every workload with one steady step.
var short = planOpts{steadySteps: 1}

// runPlans runs one round of plans and fails the test on any failed step.
func runPlans(t *testing.T, plans []worldPlan) []simOutputs {
	t.Helper()
	var out []simOutputs
	for i, p := range plans {
		r := runWorld(p, i, nil, -1)
		if r.Failed != 0 || r.Err != "" {
			t.Fatalf("%s: %d of %d steps failed: %s", p.label, r.Failed, r.Steps, r.Err)
		}
		if r.SteadyMsgs == 0 || len(r.RTT) == 0 {
			t.Fatalf("%s: steady window saw %d messages and %d rtt samples", p.label, r.SteadyMsgs, len(r.RTT))
		}
		out = append(out, r.Sim)
	}
	return out
}

// TestWorkloadsPassAndRepeat runs a short round of every workload twice
// with one seed: every check passes and the simulated outputs repeat.
func TestWorkloadsPassAndRepeat(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			first := runPlans(t, wl.plan(7, short))
			again := runPlans(t, wl.plan(7, short))
			if !slices.Equal(first, again) {
				t.Fatalf("same seed, different simulated outputs:\n%+v\n%+v", first, again)
			}
		})
	}
}

// TestSecondSeed checks that another seed draws another peer map and
// other sizes, and that the storm still passes.
func TestSecondSeed(t *testing.T) {
	a, b := newStorm(7, 256, 2), newStorm(8, 256, 2)
	if slices.EqualFunc(a.sendTo, b.sendTo, slices.Equal[[]int]) {
		t.Fatal("seeds 7 and 8 drew the same peer map")
	}
	if slices.EqualFunc(a.sendSize, b.sendSize, slices.Equal[[]uint16]) {
		t.Fatal("seeds 7 and 8 drew the same sizes")
	}
	for r := range b.sendTo {
		if len(b.sendTo[r]) != stormPeers || len(b.recvFrom[r]) != stormPeers || slices.Contains(b.sendTo[r], r) {
			t.Fatalf("rank %d: %d peers out, %d in, %v", r, len(b.sendTo[r]), len(b.recvFrom[r]), b.sendTo[r])
		}
	}
	runPlans(t, planIncast(8, short))
}

// TestCheckCatchesBadOutput feeds the payload check a wrong status, a
// stale buffer and a corrupted byte.
func TestCheckCatchesBadOutput(t *testing.T) {
	p := newPattern(3)
	buf := make([]byte, 100)
	p.fill(buf, 1, 2, 5, 0)
	good := mpi.Status{Source: 1, Tag: 60, Len: 100}
	if err := p.check(good, buf, 1, 2, 60, 5, 0); err != nil {
		t.Fatalf("good message rejected: %v", err)
	}
	for name, st := range map[string]mpi.Status{
		"source": {Source: 3, Tag: 60, Len: 100},
		"tag":    {Source: 1, Tag: 61, Len: 100},
		"length": {Source: 1, Tag: 60, Len: 99},
	} {
		if p.check(st, buf, 1, 2, 60, 5, 0) == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
	if p.check(good, buf, 1, 2, 60, 6, 0) == nil {
		t.Error("last step's payload accepted")
	}
	buf[50] ^= 1
	if p.check(good, buf, 1, 2, 60, 5, 0) == nil {
		t.Error("corrupted payload accepted")
	}
}

// TestMetricNames runs the benchmark on pingpong, traced and untraced, and
// checks every emitted name against the declared lists and BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(doc.Workloads) || doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json disagrees", w.name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, j, d)
		}
		if d.moves == "" || d.flat == "" {
			t.Errorf("%s: no prediction recorded", d.name)
		}
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	wl, _ := findWorkload("pingpong")
	for trace, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		cfg := config{workload: wl, seed: 1, budget: 1, trace: trace, traceDir: t.TempDir()}
		var out bytes.Buffer
		res, err := measure(cfg, &out, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
		}
		var want []string
		for _, d := range defs {
			want = append(want, d.name)
			if !valid.MatchString(d.name) {
				t.Errorf("bad metric name %q", d.name)
			}
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace=%v: %s missing or in the wrong unit: %+v", trace, d.name, m)
			}
		}
		for name := range res.Metrics {
			if !slices.Contains(want, name) {
				t.Errorf("trace=%v: undeclared metric %s", trace, name)
			}
		}
		if !trace {
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end %s is %v, must be positive", d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
}

// TestProfileAttribution decodes a real CPU profile and checks the
// attribution rules on synthetic stacks.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	wl, _ := findWorkload("pingpong")
	runPlans(t, wl.plan(1, planOpts{steadySteps: 20000}))
	pprof.StopCPUProfile()
	cpu := newCPUShares()
	if err := cpu.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if cpu.Total == 0 || cpu.Buckets["sim"] == 0 {
		t.Fatalf("profile attributed nothing to sim: %v of %d ns", cpu.Buckets, cpu.Total)
	}

	for _, c := range []struct {
		frames  string
		bucket  string
		handoff bool
	}{
		{"runtime.memmove ibflow/internal/chdev.(*Device).Send ibflow/internal/mpi.(*Comm).Isend main.(*storm).rank.func1", "chdev", false},
		{"runtime.chanrecv1 ibflow/internal/sim.(*Proc).park ibflow/internal/sim.(*Proc).Sleep ibflow/internal/chdev.(*Device).Send", "sim", true},
		{"ibflow/internal/sim.(*Engine).dispatch ibflow/internal/sim.(*Engine).Run", "sim", true},
		{"ibflow/internal/sim.(*queue).pop ibflow/internal/sim.(*Engine).Run", "sim", false},
		{"bytes.Equal main.(*pattern).check", "bench", false},
		{"runtime.scanobject runtime.gcDrain runtime.gcBgMarkWorker", "gc", false},
		{"runtime.futex runtime.notesleep runtime.stopm runtime.findRunnable runtime.schedule", "other", true},
		{"runtime.sysmon runtime.mstart", "other", false},
	} {
		bucket, handoff := attribute(strings.Fields(c.frames))
		if bucket != c.bucket || handoff != c.handoff {
			t.Errorf("%s: got %s/%v, want %s/%v", c.frames, bucket, handoff, c.bucket, c.handoff)
		}
	}
}

// TestSelfTimes checks self time on nested spans and on interleaved
// spans of two ranks.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100}, // step
		{parent: 0, start: 10, end: 40},  // rank 0 call, parks at 20
		{parent: 0, start: 20, end: 60},  // rank 1 call opened while rank 0 parked
		{parent: 0, start: 70, end: 80},  // a nested call
		{parent: 0, start: 90, end: 90},  // an empty call
		{parent: 3, start: 72, end: 75},  // nested in the call above
	}
	got := selfTimes(spans)
	want := []int64{40, 10, 40, 7, 0, 3}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	var sum int64
	for _, s := range got {
		sum += s
	}
	if sum != 100 {
		t.Fatalf("self times sum to %d, want the root's 100", sum)
	}
}

// TestQuiet checks that slow-phase rounds and windows are dropped and
// quiet ones kept whole.
func TestQuiet(t *testing.T) {
	if got := quiet([]float64{11, 20, 10, 13}); !slices.Equal(got, []float64{11, 10}) {
		t.Fatalf("quiet rounds %v, want [11 10]", got)
	}
	fill := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v + float64(i%3)
		}
		return xs
	}
	a := append(fill(quietWindow, 6), fill(quietWindow, 10)...)
	b := fill(quietWindow, 7)
	got := quietWindows([][]float64{a, b})
	if len(got) != 2 || got[0][0] != 6 || got[1][0] != 7 {
		t.Fatalf("quiet windows start %v, want the 6 and 7 windows", got)
	}
	if q := windowQuantile(got, 1); q != 8.5 {
		t.Fatalf("median of the window maxima %v, want 8.5", q)
	}
}

// TestUsage checks that bad arguments fail without a result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pingpong", "--trace", "2"},
		{"--workload", "pingpong", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
