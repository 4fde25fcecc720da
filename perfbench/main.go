// Command perfbench is the repository's benchmark. It runs one workload
// against an in-process service.Manager driven over loopback sockets,
// checks every answer against exact results computed from its own
// inputs, and prints each metric by name with its unit and sample count.
// The last line of its output is one JSON object with the gated metrics.
//
//	bash perfbench/run.sh --workload http-rows --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// repeats the untraced run, then runs again with the benchmark's taps
// installed and replays the acknowledged batches down the public entry
// points layer by layer, and prints the per-layer metrics. --workload all
// runs every workload in turn. See README.md for the workloads and the
// metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// epoch is the common time base of every span.
var epoch = time.Now()

// setupRuns is how many times a run sets the system up from scratch;
// setup_s is their median, so one slow file-system call does not decide
// it.
const setupRuns = 9

// workDir is where runs keep their data directories and trace files,
// relative to the checkout root.
const workDir = ".bench_build"

// workload builds the system under test for one traffic mix. Inputs are
// generated when the workload is constructed, before any setup is timed.
type workload interface {
	// digest identifies the generated inputs.
	digest() string
	// setup opens a fresh system under test with data under dir and warms
	// it up. A non-nil recorder installs the tracing taps.
	setup(dir string, rec *recorder) (instance, error)
}

// instance is one set-up system under test.
type instance interface {
	// counts describes the deterministic work setup did; every setup of
	// the same inputs must report the same string.
	counts() string
	// run drives the timed phase for d.
	run(d time.Duration, rec *recorder) (*phase, error)
	// check verifies the answers observed during and after the phase and
	// returns the worst error as a share of the paper's bound.
	check(p *phase) (errRatio float64, checked int, err error)
	// descend replays every acknowledged batch down the public entry
	// points below the transport, one span per call, into rec.
	// The replay stops at until, so a slow machine cannot push the run
	// past its time limit; descent reports how far it got.
	descend(p *phase, rec *recorder, dir string, until time.Time) (descent, error)
	close() error
}

// descent holds the layer-descent figures that are not spans.
type descent struct {
	coreMessages, coreUpdates int64
	replayed, batches         int // batches replayed of those acknowledged
}

// runLimit bounds one workload's run, leaving a margin under the 180 s a
// run may take; the layer descent is what gives way.
const runLimit = 150 * time.Second

var workloads = []struct {
	name, why string
	build     func(seed int64) workload
}{
	{"http-rows", "the main user surface: JSON row batches over HTTP with the WAL on, queries beside writes", newHTTPRows},
	{"wire-rows", "the kernel and pool path: binary row blocks over the wire protocol, no HTTP, no WAL", newWireRows},
	{"tenancy-items", "hibernation churn: 64 item trackers under a resident cap of 8, WAL replay on every fault", newTenancyItems},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced run with per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, n := range names {
		res, err := runWorkload(n, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the JSON object printed as the run's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported figure with its sample count.
type metric struct {
	name, unit string
	value      float64
	note       string
}

func runWorkload(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	// Each workload's descent has its own deadline, so with --workload all
	// the earlier workloads do not use up the later ones' time.
	deadline := time.Now().Add(runLimit)
	var w workload
	for _, c := range workloads {
		if c.name == name {
			fmt.Printf("# workload %s: %s\n", c.name, c.why)
			w = c.build(seed)
		}
	}
	fmt.Printf("# seed %d inputs %s\n", seed, w.digest())
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	runs := setupRuns
	if traced {
		// The traced run only needs the untraced throughput to compare.
		runs = 1
	}
	inst, setups, err := setUp(w, dir, runs)
	if err != nil {
		return nil, err
	}
	p, err := inst.run(d, nil)
	if err != nil {
		inst.close()
		return nil, err
	}
	errRatio, checked, cerr := inst.check(p)
	if err := inst.close(); err != nil && cerr == nil {
		cerr = fmt.Errorf("closing: %w", err)
	}
	res := &result{Correct: cerr == nil, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
	if cerr != nil {
		fmt.Printf("CHECK FAILED: %v\n", cerr)
	}
	e2e := endToEnd(p, setups, errRatio, checked)
	if behind, why := p.behind(); behind {
		fmt.Printf("INVALID RUN: the query generator fell behind its schedule (%s); not a regression signal\n", why)
	} else if why != "" {
		fmt.Printf("# open loop kept its schedule: %s\n", why)
	}
	var rates, cpus []string
	for _, w := range p.windows {
		rates = append(rates, fmt.Sprintf("%.0f", float64(w.updates)/w.span.Seconds()))
		if w.updates > 0 {
			cpus = append(cpus, fmt.Sprintf("%.2f", float64(w.cpu.Microseconds())/float64(w.updates)))
		}
	}
	fmt.Printf("# updates/s by window: %s\n", strings.Join(rates, " "))
	fmt.Printf("# cpu us/update by window: %s\n", strings.Join(cpus, " "))
	if !traced {
		report(e2e)
		for _, m := range e2e {
			if gatedEndToEnd[m.name] != "" {
				res.Metrics[m.name] = metricValue{Value: finite(m.value), Unit: m.unit}
			}
		}
		return res, nil
	}

	fmt.Println("# untraced run")
	report(e2e)
	rec := &recorder{}
	tinst, err := w.setup(filepath.Join(dir, "traced"), rec)
	if err != nil {
		return nil, err
	}
	tp, err := tinst.run(d, rec)
	if err != nil {
		tinst.close()
		return nil, err
	}
	_, _, tcerr := tinst.check(tp)
	if err := tinst.close(); err != nil && tcerr == nil {
		tcerr = fmt.Errorf("closing: %w", err)
	}
	if tcerr != nil {
		fmt.Printf("CHECK FAILED (traced run): %v\n", tcerr)
		res.Correct = false
	}
	desc, err := tinst.descend(tp, rec, filepath.Join(dir, "descent"), deadline)
	if err != nil {
		return nil, fmt.Errorf("layer descent: %w", err)
	}
	layers := perLayer(tp, p, rec, desc)
	fmt.Println("# traced run")
	report(layers)
	tracePath := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
	if err := rec.writeJSONL(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s\n", tracePath)
	res.Attempted, res.Failed = tp.attempted, tp.failed
	for _, m := range layers {
		res.Metrics[m.name] = metricValue{Value: finite(m.value), Unit: m.unit}
	}
	return res, nil
}

// setUp sets the workload up runs times from scratch, keeps the last
// instance, and returns every setup's duration in seconds. Every setup
// must do exactly the same deterministic work.
func setUp(w workload, dir string, runs int) (instance, []float64, error) {
	var times []float64
	var want string
	for i := range runs {
		runtime.GC()
		start := time.Now()
		inst, err := w.setup(filepath.Join(dir, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		got := inst.counts()
		if i == 0 {
			want = got
			fmt.Printf("# setup counts %s\n", got)
		} else if got != want {
			inst.close()
			return nil, nil, fmt.Errorf("setup %d did different work from setup 0: %s vs %s", i, got, want)
		}
		if i == runs-1 {
			return inst, times, nil
		}
		if err := inst.close(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("no setup runs (%d)", runs)
}

// gatedEndToEnd are the end-to-end metrics BENCHMARK.json gates, by
// name and unit. The others are reported but not gated. The wall-clock
// rates and latencies follow the shared host's speed, which moved
// updates_per_s by more than a quarter between runs of the same code;
// cpu_us_per_update counts only the CPU the process got and stays
// within its bound. The query latencies do not exist on wire-rows,
// failed_frac is 0 on a healthy run, and live_heap_mb can read 0 or
// below.
var gatedEndToEnd = map[string]string{
	"setup_s":              "s",
	"cpu_us_per_update":    "us",
	"messages_per_update":  "count",
	"net_bytes_per_update": "B",
	"err_ratio":            "ratio",
}

func endToEnd(p *phase, setups []float64, errRatio float64, checked int) []metric {
	sort.Float64s(setups)
	ack := summarize(durations(p.acks))
	var qlat []float64
	for _, q := range p.queries {
		qlat = append(qlat, q.latencyMS())
	}
	qd := summarize(qlat)
	secs := p.elapsed.Seconds()
	u := float64(p.updates)
	rate, cpuPer := p.windowRates()
	return []metric{
		{"setup_s", "s", percentile(setups, 50), fmt.Sprintf("median of n=%d setups, range %.4g..%.4g", len(setups), setups[0], setups[len(setups)-1])},
		{"updates_per_s", "1/s", rate, fmt.Sprintf("median of n=%d 1 s windows; %d updates in %d acked batches over %.2f s", len(p.windows), p.updates, len(p.acks), secs)},
		{"ack_p50_ms", "ms", ack.p50, fmt.Sprintf("n=%d", ack.n)},
		{"ack_p99_ms", "ms", ack.p99, ack.p99Note()},
		{"query_p50_ms", "ms", qd.p50, fmt.Sprintf("n=%d", qd.n)},
		{"query_p99_ms", "ms", qd.p99, qd.p99Note()},
		{"failed_frac", "ratio", ratio(float64(p.failed), float64(p.attempted)), fmt.Sprintf("%d of %d operations", p.failed, p.attempted)},
		{"cpu_us_per_update", "us", cpuPer, fmt.Sprintf("median of n=%d 1 s windows; whole run %.4g", len(p.windows), p.cpu.Seconds()*1e6/u)},
		{"live_heap_mb", "MB", p.heapDeltaMB, "after GC: end of run minus end of setup"},
		{"messages_per_update", "count", p.msgsPerUpdate, fmt.Sprintf("protocol messages over the first n=%d updates", p.msgsUpdates)},
		{"net_bytes_per_update", "B", float64(p.netBytes) / u, fmt.Sprintf("n=%d updates", p.updates)},
		{"err_ratio", "ratio", errRatio, fmt.Sprintf("worst of n=%d checked answers", checked)},
	}
}

// report prints one metric a line: name, value, unit, sample count.
func report(ms []metric) {
	for _, m := range ms {
		fmt.Printf("%-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// finite keeps a metric JSON-encodable: a figure with no samples (NaN)
// reads 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// errCheck collects correctness violations.
type errCheck struct{ errs []error }

func (c *errCheck) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

func (c *errCheck) err() error {
	if len(c.errs) > 5 {
		extra := len(c.errs) - 5
		c.errs = append(c.errs[:5], fmt.Errorf("and %d more", extra))
	}
	return errors.Join(c.errs...)
}

// joinCounts renders deterministic setup counts.
func joinCounts(kv ...any) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		fmt.Fprintf(&b, "%v=%v ", kv[i], kv[i+1])
	}
	return strings.TrimSpace(b.String())
}
