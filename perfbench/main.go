// Command perfbench is the repository benchmark. It runs one workload of
// simulated MPI traffic for a host-time budget, checks every output, and
// prints one JSON object as its last line of standard output.
//
//	go run . --workload incast_storm --seed 1 --seconds 28 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 a separate traced run reports the per-layer
// metrics: a CPU profile split by layer, spans around every call the
// benchmark makes into the layers, and the layers' public counters. The
// spans are written to --trace-dir as CSV.
//
// Two clocks appear in the output: host time is what the simulator takes
// to run, simulated time is what the modelled cluster would take. Metric
// names ending in virt_us are simulated; every other time is host time.
//
// Each round of the workload's worlds runs in a child process (this
// program again, with --child-round), so every round starts from a fresh
// heap, as a user's run does; the first round of a process is otherwise
// slower than the rest, and medians over rounds would depend on how many
// rounds fit in the budget.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"ibflow/internal/sim"
)

func main() {
	// A world runs one goroutine at a time: the engine hands the CPU to
	// one rank proc and waits for it to park. A second P adds nothing but
	// a scheduler thread that spins up at every handoff, and the CPU it
	// burns varies from run to run, so the benchmark runs on one.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     uint64
	budget   time.Duration
	trace    bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 28, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", ".bench_build/perfbench-trace", "directory traced runs write their spans to")
	childRound := fs.Int("child-round", -1, "internal: run round `n` and print its result as JSON")
	childSetup := fs.Bool("child-setup", false, "internal: only build the worlds and print their set-up times as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: wl, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceDir: *traceDir}
	var err error
	switch {
	case *childSetup:
		err = json.NewEncoder(stdout).Encode(setupRound(cfg))
	case *childRound >= 0:
		var r roundResult
		if r, err = childRun(cfg, *childRound); err == nil {
			err = json.NewEncoder(stdout).Encode(r)
		}
	default:
		err = report(cfg, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report measures the workload and prints every metric by name and unit,
// then the result as the last line.
func report(cfg config, stdout, stderr io.Writer) error {
	res, err := measure(cfg, stdout, stderr)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-26s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return nil
}

// roundResult is one round: every world of the workload's plan, in order.
// A child process reports it as JSON.
type roundResult struct {
	Worlds []worldResult
	Traced bool
	GCN    uint32 // GC cycles during the round
	GCNs   uint64 // GC pause time during the round

	// Traced rounds only.
	CPU      *cpuShares
	Calls    map[string][]float64 // self times of the steady steps' calls, by span kind
	WaitVirt sim.Time             // simulated time ranks spent blocked in Waitall/Recv
	Spans    int
}

func (r roundResult) setup() (d time.Duration) {
	for _, w := range r.Worlds {
		d += w.Setup
	}
	return d
}

func (r roundResult) run() (d time.Duration) {
	for _, w := range r.Worlds {
		d += w.Run
	}
	return d
}

// minSetups is how many set-up samples setup_s takes its median over.
const minSetups = 5

// maxSpans caps the spans a traced run records: a million spans take
// about 40 MB of memory and 60 MB of CSV.
const maxSpans = 1 << 20

// measure runs rounds of the workload in child processes until the next
// one would overrun the budget, checks them, and reduces them to the
// metrics. A traced run alternates untraced rounds, the baseline of the
// tracing overhead, with traced ones, and also stops once its rounds
// recorded maxSpans spans. measure reports what it measured on out and
// every failure on errw.
func measure(cfg config, out, errw io.Writer) (result, error) {
	start := time.Now()
	var rounds []roundResult
	spans := 0
	for k := 0; ; k++ {
		traceArg := "--trace=0"
		if cfg.trace && k%2 == 1 {
			traceArg = "--trace=1"
		}
		t0 := time.Now()
		r, err := child(cfg, "--child-round", fmt.Sprint(k), traceArg)
		if err != nil {
			return result{}, err
		}
		wall := time.Since(t0)
		for i := range r.Worlds {
			w := &r.Worlds[i]
			if k > 0 && w.Sim != rounds[0].Worlds[i].Sim && w.Err == "" {
				w.Failed = w.Steps
				w.Err = fmt.Sprintf("round %d, world %d: simulated outputs differ from round 0 of this seed", k, i)
			}
		}
		rounds = append(rounds, r)
		spans += r.Spans
		if cfg.trace && k == 0 {
			continue
		}
		if cfg.trace && spans >= maxSpans {
			break
		}
		extra := time.Duration(0)
		if !cfg.trace {
			extra = time.Duration(max(0, minSetups-k-2)) * r.setup()
		}
		if time.Since(start)+wall+extra > cfg.budget {
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range rounds {
		for _, w := range r.Worlds {
			res.Attempted += w.Steps
			res.Failed += w.Failed
			if w.Err != "" {
				res.Correct = false
				fmt.Fprintf(errw, "perfbench: %s\n", w.Err)
			}
		}
	}
	if cfg.trace {
		layerMetrics(&res, cfg, rounds)
		return res, nil
	}
	// Top the set-up samples up to minSetups with children that only
	// build the worlds.
	setups := slices.Clone(rounds)
	for len(setups) < minSetups {
		r, err := child(cfg, "--child-setup")
		if err != nil {
			return result{}, err
		}
		setups = append(setups, r)
	}
	endToEndMetrics(&res, cfg.workload, rounds, setups, out)
	return res, nil
}

// child runs this program with the given extra arguments and decodes the
// roundResult it prints.
func child(cfg config, args ...string) (roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return roundResult{}, fmt.Errorf("child: %w", err)
	}
	args = append([]string{"--workload", cfg.workload.name, "--seed", fmt.Sprint(cfg.seed),
		"--trace-dir", cfg.traceDir}, args...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return roundResult{}, fmt.Errorf("child %v: %w", args, err)
	}
	var r roundResult
	if err := json.Unmarshal(b, &r); err != nil {
		return roundResult{}, fmt.Errorf("child %v: %w", args, err)
	}
	return r, nil
}

// setupRound builds every world of the plan once.
func setupRound(cfg config) roundResult {
	var r roundResult
	for _, p := range cfg.workload.plan(cfg.seed, planOpts{}) {
		_, setup, _, _ := setupWorld(p)
		r.Worlds = append(r.Worlds, worldResult{Setup: setup})
	}
	return r
}

// childRun runs round k. A traced round also records spans and a CPU
// profile, and writes the spans with their self times to the trace
// directory.
func childRun(cfg config, k int) (roundResult, error) {
	plans := cfg.workload.plan(cfg.seed, planOpts{})
	if !cfg.trace {
		return runRound(plans, nil), nil
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return roundResult{}, fmt.Errorf("cpu profile: %w", err)
	}
	r := runRound(plans, tr)
	pprof.StopCPUProfile()
	r.Traced = true
	r.CPU = newCPUShares()
	if err := r.CPU.add(prof.Bytes()); err != nil {
		return roundResult{}, err
	}
	self := selfTimes(tr.spans)
	r.Calls = map[string][]float64{}
	for i, s := range tr.spans {
		if s.step >= 1 && (s.kind == spanIsend || s.kind == spanIrecv) {
			r.Calls[s.kind.String()] = append(r.Calls[s.kind.String()], float64(self[i]))
		}
	}
	r.WaitVirt, r.Spans = tr.waitVirt, len(tr.spans)
	labels := make([]string, len(plans))
	for i, p := range plans {
		labels[i] = p.label
	}
	name := fmt.Sprintf("spans-%s-seed%d-round%d.csv", cfg.workload.name, cfg.seed, k)
	if err := writeSpans(cfg.traceDir, name, tr.spans, self, labels); err != nil {
		return roundResult{}, fmt.Errorf("writing spans: %w", err)
	}
	return r, nil
}

// runRound sets up and runs every world of the plan once, with spans if
// tr is not nil.
func runRound(plans []worldPlan, tr *tracer) roundResult {
	var r roundResult
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	roundID := int32(-1)
	if tr != nil {
		roundID = tr.open(spanRound, -1, 0, -1, -1)
	}
	for i, p := range plans {
		r.Worlds = append(r.Worlds, runWorld(p, i, tr, roundID))
	}
	if tr != nil {
		tr.close(roundID)
	}
	runtime.ReadMemStats(&ms)
	r.GCN, r.GCNs = ms.NumGC-gc0, ms.PauseTotalNs-pause0
	return r
}

// endToEndMetrics reduces untraced rounds to the end-to-end metrics.
// allocs_per_msg and heap_mb are medians over rounds. The host times come
// from the quiet part of the run (quiet in metrics.go says why and how).
// Every round of a seed runs the same simulations, so each world's
// set-up, each world's run and each steady step of a world is the same
// work in every round: setup_s and run_s sum, over the worlds, the median
// of the world's quiet samples, and rtt_p50_us and rtt_p99_us are
// quantiles over the steps of each step's quiet median. Pingpong's steps
// are round trips of microseconds; they are cut into windows instead, and
// each of its quantiles is a median over the quiet windows.
func endToEndMetrics(res *result, wl workload, rounds, setups []roundResult, log io.Writer) {
	var allocs, heap []float64
	for _, r := range rounds {
		var a, m, h uint64
		for _, w := range r.Worlds {
			a += w.SteadyAllocs
			m += w.SteadyMsgs
			h = max(h, w.Heap)
		}
		allocs = append(allocs, ratio(float64(a), float64(m)))
		heap = append(heap, float64(h)/(1<<20))
	}
	put := func(name string, v float64) {
		for _, d := range endToEnd {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
	put("allocs_per_msg", median(allocs))
	put("heap_mb", median(heap))

	// byWorld returns f of world i of every round in rs.
	byWorld := func(rs []roundResult, i int, f func(worldResult) time.Duration) []float64 {
		xs := make([]float64, len(rs))
		for k, r := range rs {
			xs[k] = f(r.Worlds[i]).Seconds()
		}
		return xs
	}
	phased := wl.plan(1, planOpts{steadySteps: 1})[0].rttWall
	var setup, run float64
	kept, total := 0, 0
	var steps []float64  // each steady step's quiet median over rounds, in us
	var rtts [][]float64 // pingpong: each round's round trips, in us
	for i := range rounds[0].Worlds {
		su := quiet(byWorld(setups, i, func(w worldResult) time.Duration { return w.Setup }))
		ru := quiet(byWorld(rounds, i, func(w worldResult) time.Duration { return w.Run }))
		setup += median(su)
		run += median(ru)
		kept, total = kept+len(ru), total+len(rounds)
		if phased {
			for _, r := range rounds {
				rtt := make([]float64, len(r.Worlds[i].RTT))
				for s, d := range r.Worlds[i].RTT {
					rtt[s] = float64(d) / 1e3
				}
				rtts = append(rtts, rtt)
			}
			continue
		}
		for s := range rounds[0].Worlds[i].RTT {
			xs := byWorld(rounds, i, func(w worldResult) time.Duration { return w.RTT[s] })
			steps = append(steps, median(quiet(xs))*1e6)
		}
	}
	put("setup_s", setup)
	put("run_s", run)
	fmt.Fprintf(log, "perfbench: %d rounds, %d set-up samples, %d of %d world runs quiet\n",
		len(rounds), len(setups), kept, total)
	if phased {
		windows := quietWindows(rtts)
		put("rtt_p50_us", windowQuantile(windows, 0.5))
		put("rtt_p99_us", windowQuantile(windows, 0.99))
		fmt.Fprintf(log, "perfbench: %d rtt samples, %d quiet windows of %d\n", sumLens(rtts), len(windows), quietWindow)
		return
	}
	put("rtt_p50_us", quantile(steps, 0.5))
	put("rtt_p99_us", quantile(steps, 0.99))
	fmt.Fprintf(log, "perfbench: %d steady steps\n", len(steps))
}

func sumLens(xss [][]float64) (n int) {
	for _, xs := range xss {
		n += len(xs)
	}
	return n
}
