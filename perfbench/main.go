// Command perfbench is the repository's benchmark. It drives three
// closed-loop, single-client workloads through the exported entry points
// of the layers, checks every output, and prints every metric by name with
// its unit:
//
//	perfbench --workload reproduce|plan|recover --seed N --seconds S --trace 0|1
//	perfbench --spread < results.jsonl
//
// Run it from the root of a checkout through run.sh, which builds it. See
// README.md for the workloads, the metrics and the layer each one probes.
//
// An untraced run (--trace 0) prints the end-to-end metrics. A traced run
// (--trace 1) does the same work untraced, then with program telemetry,
// host-time spans and a CPU profile, then untraced again; it prints the
// per-layer metrics and writes its artifacts under .bench_build/perfbench. The last line of standard
// output is always the result object; the line before it records the seed,
// the request and output digests and the run settings.
//
// --spread reads result lines from several runs and prints, per metric,
// the median and the quartile spread the benchmark's bounds are set
// against.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"mlckpt/internal/cli"
	"mlckpt/internal/obs"
)

// sweepWorkers is the sweep worker-pool size of every workload, and the
// process runs at GOMAXPROCS=1: a run measures the layers, not how two
// shared cores are scheduled.
const sweepWorkers = 1

// An untraced run cuts its timed pass into passParts parts (at most one
// per op) and, outside the measured time, sets its workload up for at
// least setupWindowSeconds before each part and after the last; setup_s
// is the median of all set-ups, the first included. The machine switches
// between speeds up to 1.8× apart every 2–15 s, so set-ups made only at
// the start of a run measured whichever speed the run started in: plan's
// and recover's setup_s moved by up to 0.4 between seeds. Spread over the
// pass, they sample the machine as the pass does.
const (
	passParts          = 8
	setupWindowSeconds = 0.3
)

// workloads maps each workload to its setup.
var workloads = map[string]func(seed uint64, seconds int) (*session, error){
	"reproduce": setupReproduce,
	"plan":      setupPlan,
	"recover":   setupRecover,
}

// session is one set-up workload: a fixed number of requests and the
// operation that serves one and checks its output.
type session struct {
	ops      int
	requests []byte // canonical encoding of the generated requests
	// do serves request i. Its output feeds the output digest; a non-nil
	// error is a failed op (a wrong output or an unexpected error).
	do func(i int, env opEnv) (opResult, error)
}

// opResult is one op's output; completed is false for an answered op that
// ended without a result (an exhausted recovery escalation).
type opResult struct {
	out       []byte
	completed bool
}

// opEnv carries an op's telemetry sinks; both are nil when untraced.
type opEnv struct {
	op   int
	rec  obs.Recorder // the program's own counters, via its public Obs fields
	host *hostSpans   // host-time spans the benchmark records around calls
}

// hostSpans records the wall-clock time of calls into the layers as spans
// on one track of an obs.Collector, so the existing trace exporter writes
// them and obstool reads them.
type hostSpans struct {
	col   *obs.Collector
	track string
	start time.Time
	durs  map[string][]float64 // seconds, per span name
}

func newHostSpans(workload string) *hostSpans {
	return &hostSpans{col: obs.NewCollector(), track: "host/" + workload, start: time.Now(), durs: map[string][]float64{}}
}

// time runs f, recording a span named name for op when h is not nil.
func (h *hostSpans) time(name string, op int, f func()) {
	if h == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	h.col.Span(h.track, name, t0.Sub(h.start).Seconds(), d, map[string]float64{"op": float64(op)})
	h.durs[name] = append(h.durs[name], d)
}

// passStats is one timed pass over every request of a session.
type passStats struct {
	wall, cpu  float64 // seconds
	latencies  []float64
	failed     int
	completed  int
	firstErr   error
	allocs     uint64
	gcCycles   uint32
	gcPauseNs  uint64
	allocBytes uint64
	outputSHA  string
}

// runPass serves every request once, in order, one at a time.
func runPass(s *session, rec obs.Recorder, host *hostSpans) passStats {
	p, _ := servePass(s, rec, host, 1, nil)
	return p
}

// servePass is runPass cut into parts; when between is not nil it runs
// before each part and after the last, outside the measured time and
// allocation counts.
func servePass(s *session, rec obs.Recorder, host *hostSpans, parts int, between func() error) (passStats, error) {
	p := passStats{latencies: make([]float64, s.ops)}
	digest := sha256.New()
	for c := 0; c < parts; c++ {
		if between != nil {
			if err := between(); err != nil {
				return p, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		t0 := time.Now()
		for i := c * s.ops / parts; i < (c+1)*s.ops/parts; i++ {
			start := time.Now()
			res, err := s.do(i, opEnv{op: i, rec: rec, host: host})
			p.latencies[i] = time.Since(start).Seconds()
			fmt.Fprintf(digest, "%d:%d:", i, len(res.out))
			digest.Write(res.out)
			if err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = fmt.Errorf("op %d: %w", i, err)
				}
			} else if res.completed {
				p.completed++
			}
		}
		p.wall += time.Since(t0).Seconds()
		p.cpu += cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		p.allocs += m1.Mallocs - m0.Mallocs
		p.gcCycles += m1.NumGC - m0.NumGC
		p.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	if between != nil {
		if err := between(); err != nil {
			return p, err
		}
	}
	p.outputSHA = hex.EncodeToString(digest.Sum(nil))
	return p, nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the line before the result: what is needed to re-check a
// claim on the same inputs.
type runInfo struct {
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	Seconds       int     `json:"seconds"`
	Trace         int     `json:"trace"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	SweepWorkers  int     `json:"sweep_workers"`
	Ops           int     `json:"ops"`
	RequestDigest string  `json:"request_digest"`
	OutputDigest  string  `json:"output_digest"`
	FailRatio     float64 `json:"fail_ratio"`
	FirstError    string  `json:"first_error,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "reproduce | plan | recover")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 20, "nominal run length; fixes the op count")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		spreadIn = fs.Bool("spread", false, "read result lines on stdin and print each metric's median and quartile spread")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spreadIn {
		if err := printSpread(stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	setup, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	runtime.GOMAXPROCS(1)
	info := runInfo{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), SweepWorkers: sweepWorkers}
	var res result
	var err error
	if *trace == 0 {
		res, err = untracedRun(setup, *seed, *seconds, &info)
	} else {
		res, err = tracedRun(setup, *workload, *seed, *seconds, &info)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if info.FirstError != "" {
		fmt.Fprintf(stderr, "perfbench: %s\n", info.FirstError)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// untracedRun sets the workload up and measures one pass with all
// telemetry off, setting it up again between the parts of the pass (see
// passParts).
func untracedRun(setup func(uint64, int) (*session, error), seed uint64, seconds int, info *runInfo) (result, error) {
	var setupTimes []float64
	setUp := func() (*session, error) {
		runtime.GC()
		t0 := time.Now()
		s, err := setup(seed, seconds)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		return s, err
	}
	window := func() error {
		for t0 := time.Now(); time.Since(t0).Seconds() < setupWindowSeconds; {
			if _, err := setUp(); err != nil {
				return err
			}
		}
		return nil
	}
	s, err := setUp()
	if err != nil {
		return result{}, err
	}
	p, err := servePass(s, nil, nil, min(passParts, s.ops), window)
	if err != nil {
		return result{}, err
	}
	fillInfo(info, s, p, p.failed, s.ops)

	lat := append([]float64(nil), p.latencies...)
	sort.Float64s(lat)
	values := map[string]float64{
		"setup_s":     median(setupTimes),
		"wall_s":      p.wall,
		"cpu_s":       p.cpu,
		"ops_per_s":   float64(s.ops) / p.wall,
		"op_p50_ms":   percentile(lat, 50) * 1e3,
		"op_p90_ms":   percentile(lat, 90) * 1e3,
		"allocs":      float64(p.allocs),
		"peak_rss_mb": peakRSSMB(),
	}
	m := make(map[string]metric, len(endToEndMetrics))
	for _, e := range endToEndMetrics {
		m[e.name] = metric{values[e.name], e.unit}
	}
	return result{Correct: p.failed == 0, Attempted: s.ops, Failed: p.failed, Metrics: m}, nil
}

func fillInfo(info *runInfo, s *session, p passStats, failed, attempted int) {
	info.Ops = s.ops
	info.RequestDigest = fmt.Sprintf("%x", sha256.Sum256(s.requests))
	info.OutputDigest = p.outputSHA
	info.FailRatio = float64(failed) / float64(attempted)
	if p.firstErr != nil {
		info.FirstError = p.firstErr.Error()
	}
}

// tracedRun sets up once and serves the requests three times: untraced,
// then with the program's telemetry collected, host-time spans recorded
// and the CPU profiled, then untraced again. It reports the per-layer
// metrics; the untraced passes on both sides keep trace_overhead from
// reading the machine's drift as overhead.
func tracedRun(setup func(uint64, int) (*session, error), workload string, seed uint64, seconds int, info *runInfo) (result, error) {
	s, err := setup(seed, seconds)
	if err != nil {
		return result{}, err
	}
	before := runPass(s, nil, nil)

	col := obs.NewCollector()
	host := newHostSpans(workload)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := runPass(s, col, host)
	pprof.StopCPUProfile()
	after := runPass(s, nil, nil)

	failed := before.failed + traced.failed + after.failed
	for _, p := range []passStats{before, after} {
		if traced.firstErr == nil {
			traced.firstErr = p.firstErr
		}
		if p.outputSHA != traced.outputSHA {
			failed++
			traced.firstErr = fmt.Errorf("traced output digest %s differs from untraced %s", traced.outputSHA, p.outputSHA)
		}
	}
	fillInfo(info, s, traced, failed, 3*s.ops)

	shares, profiled, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	if err := writeArtifacts(workload, col, host, prof.Bytes()); err != nil {
		return result{}, err
	}
	m := layerMetrics(col.Registry.Snapshot(), host, shares)
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("cpu.profile_coverage", ratio(profiled, traced.cpu))
	if workload == "recover" {
		set("recover.completed_ratio", ratio(float64(traced.completed), float64(s.ops)))
	}
	set("gc.cycles", float64(before.gcCycles))
	set("gc.pause_ms", float64(before.gcPauseNs)/1e6)
	set("heap.alloc_mb", float64(before.allocBytes)/(1<<20))
	set("trace_overhead", traced.wall/((before.wall+after.wall)/2))
	set("fail_ratio", float64(failed)/float64(3*s.ops))
	return result{Correct: failed == 0, Attempted: 3 * s.ops, Failed: failed, Metrics: m}, nil
}

// artifactDir, relative to the checkout root, receives a traced run's
// artifacts; it is the build directory run.sh uses, which git ignores.
const artifactDir = ".bench_build/perfbench"

// writeArtifacts writes the traced run's program metrics, host-time trace
// and CPU profile into artifactDir, in the formats obstool and go tool
// pprof read.
func writeArtifacts(workload string, col *obs.Collector, host *hostSpans, prof []byte) error {
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(artifactDir, workload)
	if err := cli.WriteMetrics(col.Registry, base+"-metrics.json"); err != nil {
		return err
	}
	if err := cli.WriteTrace(host.col.Trace, base+"-host-trace.json"); err != nil {
		return err
	}
	return cli.WriteFileAtomic(base+"-cpu.pprof", prof)
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics and perLayerMetrics are the metrics the two run kinds
// report, in BENCHMARK.json's order.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"}, {"op_p90_ms", "ms"}, {"allocs", "count"}, {"peak_rss_mb", "MB"},
}

// perLayerMetrics lists every per-layer metric; layerMetrics fills them.
func perLayerMetrics() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit})
		}
	}
	for _, m := range cpuModules {
		add("ratio", "cpu."+m)
	}
	add("ratio", "cpu.profile_coverage")
	add("count", "sim.runs", "sim.failures", "sim.checkpoints",
		"core.solves", "core.outer_iters", "core.inner_iters", "core.bisect_iters")
	add("ratio", "core.converged_ratio")
	add("count", "sweep.jobs")
	add("ratio", "sweep.solve_hit_ratio", "sweep.post_hit_ratio")
	add("count", "mpisim.runs", "mpisim.collectives",
		"real.injected_faults", "real.escalations", "real.pfs_retries", "real.ckpt_aborts", "real.recovery_crashes")
	add("ratio", "recover.completed_ratio")
	for _, id := range reproduceIDs {
		add("s", "experiments."+id+"_s")
	}
	add("ms", "plan.sweep_ms", "recover.run_real_ms")
	add("count", "gc.cycles")
	add("ms", "gc.pause_ms")
	add("MB", "heap.alloc_mb")
	add("ratio", "trace_overhead", "fail_ratio")
	return out
}

// layerMetrics reads the program's counters and the host spans into every
// per-layer metric; those no layer of this workload produced read 0.
func layerMetrics(snap obs.Snapshot, host *hostSpans, shares map[string]float64) map[string]metric {
	counter := func(name string) float64 {
		v, _ := snap.Counter(name)
		return float64(v)
	}
	histSum := func(name string) float64 {
		for _, m := range snap.Metrics {
			if m.Name == name && m.Type == "histogram" {
				return m.Sum()
			}
		}
		return 0
	}
	hitRatio := func(stage string) float64 {
		hits := counter("sweep." + stage + ".cache_hits")
		return ratio(hits, hits+counter("sweep."+stage+".computed"))
	}
	spanP50 := func(name string) float64 {
		if d := host.durs[name]; len(d) > 0 {
			return median(d)
		}
		return 0
	}
	m := map[string]metric{}
	for _, l := range perLayerMetrics() {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	for _, mod := range cpuModules {
		set("cpu."+mod, shares[mod])
	}
	for _, name := range []string{"sim.runs", "sim.failures", "sim.checkpoints", "sweep.jobs", "mpisim.runs", "mpisim.collectives",
		"real.injected_faults", "real.escalations", "real.pfs_retries", "real.ckpt_aborts", "real.recovery_crashes"} {
		set(name, counter(name))
	}
	set("core.solves", counter("core.optimize.solves"))
	set("core.outer_iters", histSum("core.optimize.outer_iters"))
	set("core.inner_iters", histSum("core.optimize.inner_iters"))
	set("core.bisect_iters", counter("core.bisect.iters"))
	set("core.converged_ratio", ratio(counter("core.optimize.converged"), counter("core.optimize.solves")))
	set("sweep.solve_hit_ratio", hitRatio("solve"))
	set("sweep.post_hit_ratio", hitRatio("post"))
	for _, id := range reproduceIDs {
		set("experiments."+id+"_s", spanP50("experiments."+id))
	}
	set("plan.sweep_ms", spanP50("plan.sweep")*1e3)
	set("recover.run_real_ms", spanP50("recover.run_real")*1e3)
	return m
}

// printSpread reads result lines (any other line is skipped) and prints,
// for every metric, the run count, median, quartiles and spread.
func printSpread(r io.Reader, w io.Writer) error {
	values := map[string][]float64{}
	var names []string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var res result
		if json.Unmarshal(sc.Bytes(), &res) != nil || res.Metrics == nil {
			continue
		}
		keys := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			keys = append(keys, name)
		}
		sort.Strings(keys)
		for _, name := range keys {
			if values[name] == nil {
				names = append(names, name)
			}
			values[name] = append(values[name], res.Metrics[name].Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %4s %14s %14s %14s %8s\n", "metric", "runs", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := values[name]
		if len(v) < 2 {
			fmt.Fprintf(w, "%-28s %4d %14.6g\n", name, len(v), v[0])
			continue
		}
		q1, q3 := quartiles(v)
		fmt.Fprintf(w, "%-28s %4d %14.6g %14.6g %14.6g %8.4f\n", name, len(v), median(v), q1, q3, spread(v))
	}
	return nil
}
