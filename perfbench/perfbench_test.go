package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"mlckpt"
	"mlckpt/internal/cli"
	"mlckpt/internal/experiments"
	"mlckpt/internal/fti"
	"mlckpt/internal/obs"
)

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4}, 90); got != 4 {
		t.Errorf("percentile of one value = %g, want 4", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2.5, 0.5}, 0, 3},
		{[]float64{10.2, 11.0, 10.7, 10.4, 10.9, 10.1, 10.6, 10.3, 11.4, 10.5}, 10.275, 10.925},
	} {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.values, q1, q3, c.q1, c.q3)
		}
	}
	v := []float64{10.2, 11.0, 10.7, 10.4, 10.9, 10.1, 10.6, 10.3, 11.4, 10.5}
	if got, want := spread(v), (10.925-10.275)/10.55; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mlckpt/internal/sim.Run":                           "sim",
		"mlckpt/internal/sim.(*runState).advance":           "sim",
		"mlckpt/internal/obs/attrib.FromTrace":              "obs",
		"mlckpt/internal/core.OptimizeBatch.func1":          "core",
		"mlckpt/internal/erasure.mulSliceXorAVX2":           "erasure",
		"mlckpt/internal/experiments.RunReal":               "experiments",
		"mlckpt/internal/jacobi.Solve":                      "other",
		"mlckpt.Sweep":                                      "other",
		"main.servePlan":                                    "other",
		"mlckpt/perfbench.spin":                             "other",
		"math.Exp":                                          "math",
		"math/bits.Mul64":                                   "math",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/atomic.(*Uint32).Load":            "runtime",
		"gcWriteBarrier":                                    "runtime",
		"sort.insertionSortCmpFunc[go.shape.float64]":       "stdlib",
		"crypto/sha256.block":                               "stdlib",
		"slices.SortFunc[[]mlckpt/internal/sweep.Job,...]":  "stdlib",
		"mlckpt/internal/sweep.Run[go.shape.struct { a }]":  "sweep",
		"golang.org/x/sys/unix.Syscall":                     "other",
		"mlckpt/internal/model.(*Slab).WallClock":           "model",
		"mlckpt/internal/mpisim.(*evRuntime).deliver":       "mpisim",
		"mlckpt/internal/storage.RetryPolicy.Retry.func2.1": "storage",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoMsg is a minimal protobuf encoder for building synthetic profiles.
type protoMsg []byte

func (m protoMsg) varint(field int, v uint64) protoMsg {
	m = binary.AppendUvarint(m, uint64(field)<<3)
	return binary.AppendUvarint(m, v)
}

func (m protoMsg) bytes(field int, b []byte) protoMsg {
	m = binary.AppendUvarint(m, uint64(field)<<3|2)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func (m protoMsg) packed(field int, vs ...uint64) protoMsg {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return m.bytes(field, b)
}

// TestCPUSharesSyntheticProfile groups a hand-built profile: leaf frames
// decide the module, the first line of a location is the innermost inlined
// function, and packed and unpacked repeated fields both decode.
func TestCPUSharesSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"mlckpt/internal/sim.Run", "mlckpt/internal/core.Optimize", "math.Exp", "runtime.mallocgc", "main.main"}
	var p protoMsg
	p = p.bytes(1, protoMsg{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, protoMsg{}.varint(1, 3).varint(2, 4))
	for id, name := range []uint64{5, 6, 7, 8, 9} {
		p = p.bytes(5, protoMsg{}.varint(1, uint64(id+1)).varint(2, name))
	}
	// Location 1: math.Exp inlined into sim.Run; 2: core; 3: runtime; 4: main.
	p = p.bytes(4, protoMsg{}.varint(1, 1).bytes(4, protoMsg{}.varint(1, 3)).bytes(4, protoMsg{}.varint(1, 1)))
	p = p.bytes(4, protoMsg{}.varint(1, 2).bytes(4, protoMsg{}.varint(1, 2)))
	p = p.bytes(4, protoMsg{}.varint(1, 3).bytes(4, protoMsg{}.varint(1, 4)))
	p = p.bytes(4, protoMsg{}.varint(1, 4).bytes(4, protoMsg{}.varint(1, 5)))
	// Samples: 4 ms in math (leaf of location 1), 3 ms in core called
	// from sim, 2 ms in runtime, 1 ms in main; one sample unpacked.
	p = p.bytes(2, protoMsg{}.packed(1, 1, 4).packed(2, 4, 4e6))
	p = p.bytes(2, protoMsg{}.packed(1, 2, 1, 4).packed(2, 3, 3e6))
	p = p.bytes(2, protoMsg{}.varint(1, 3).varint(1, 4).varint(2, 2).varint(2, 2e6))
	p = p.bytes(2, protoMsg{}.packed(1, 4).packed(2, 1, 1e6))
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	shares, seconds, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seconds-0.01) > 1e-12 {
		t.Errorf("profiled %g s, want 0.01", seconds)
	}
	want := map[string]float64{"math": 0.4, "core": 0.3, "runtime": 0.2, "other": 0.1}
	sum := 0.0
	for _, m := range cpuModules {
		sum += shares[m]
		if math.Abs(shares[m]-want[m]) > 1e-12 {
			t.Errorf("share of %s = %g, want %g", m, shares[m], want[m])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	if _, _, err := cpuShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// spin burns CPU in this package so a real profile has samples here.
func spin(d time.Duration) (x float64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x += float64(i) * 1e-9
		}
	}
	return x
}

// TestCPUSharesRealProfile decodes what runtime/pprof writes.
func TestCPUSharesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, seconds, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if seconds <= 0 || shares["other"] < 0.5 {
		t.Errorf("profiled %g s with %g in this package, want most of 0.3 s", seconds, shares["other"])
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := enc(genPlanSpecs(42, 500)), enc(genPlanSpecs(42, 500)); !bytes.Equal(a, b) {
		t.Error("plan requests differ for the same seed")
	}
	if a, b := enc(genPlanSpecs(42, 500)), enc(genPlanSpecs(43, 500)); bytes.Equal(a, b) {
		t.Error("plan requests equal for different seeds")
	}
	if a, b := enc(genRecoverRequests(42, 500)), enc(genRecoverRequests(42, 500)); !bytes.Equal(a, b) {
		t.Error("recover requests differ for the same seed")
	}
	if a, b := enc(genRecoverRequests(42, 500)), enc(genRecoverRequests(43, 500)); bytes.Equal(a, b) {
		t.Error("recover requests equal for different seeds")
	}
	// Every generated request stays inside its documented ranges.
	for _, s := range genPlanSpecs(7, 2000) {
		if l := len(s.Levels); l < 2 || l > 4 || len(s.FailuresPerDay) != l || s.TeCoreDays < 1e6 || s.TeCoreDays > 1e7 {
			t.Fatalf("plan request out of range: %+v", s)
		}
		for i, r := range s.FailuresPerDay {
			if r < 0.25 || r > 32 || i > 0 && r > s.FailuresPerDay[i-1] || i == len(s.FailuresPerDay)-1 && r > gridMaxPFS {
				t.Fatalf("failure rate %g out of range: %+v", r, s)
			}
		}
	}
}

// TestPlanGridAnswered serves every point of the plan grid and requires
// every one to pass the plan workload's checks, so that no seed can draw a
// failing request. It takes about a minute; -short skips it.
func TestPlanGridAnswered(t *testing.T) {
	if testing.Short() {
		t.Skip("serves the whole plan grid")
	}
	seen := map[string]bool{}
	for k := 0; k < planGridSize(); k++ {
		spec := planGridSpec(k)
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("grid point %d repeats an earlier point: %s", k, b)
		}
		seen[string(b)] = true
		if _, err := servePlan(spec, opEnv{}); err != nil {
			t.Errorf("grid point %d %s: %v", k, b, err)
		}
	}
}

// TestKnownDefectsReproduce keeps the solver defects found outside the
// plan grid in view: every spec under defects/ must still fail the plan
// workload's checks. When one stops failing, the solver has been fixed;
// delete the spec and update README.md, "Known solver defects".
func TestKnownDefectsReproduce(t *testing.T) {
	paths, err := filepath.Glob("defects/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no defect specs: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var spec mlckpt.Spec
		if err := json.Unmarshal(b, &spec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := servePlan(spec, opEnv{}); err == nil {
			t.Errorf("%s: now answered correctly", path)
		} else {
			t.Logf("%s: %v", path, err)
		}
	}
}

// TestSessionDigestsDeterministic sets the plan workload up twice from one
// seed and requires byte-identical requests and output digests.
func TestSessionDigestsDeterministic(t *testing.T) {
	var reqs [][]byte
	var outs []string
	for k := 0; k < 2; k++ {
		s, err := setupPlan(9, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.ops = 100
		p := runPass(s, nil, nil)
		if p.failed != 0 {
			t.Fatalf("%d of %d plan ops failed: %v", p.failed, s.ops, p.firstErr)
		}
		reqs, outs = append(reqs, s.requests), append(outs, p.outputSHA)
	}
	if !bytes.Equal(reqs[0], reqs[1]) || outs[0] != outs[1] {
		t.Errorf("same seed, different digests: outputs %s vs %s", outs[0], outs[1])
	}
}

// TestCorruptedOutputCountsAsFailed feeds every workload's check a
// deliberately corrupted output and requires a failed op.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReproduce(golden, golden); err != nil {
		t.Errorf("golden output rejected: %v", err)
	}
	bad := append([]byte(nil), golden...)
	bad[len(bad)/2] ^= 1
	if checkReproduce(bad, golden) == nil {
		t.Error("reproduce: corrupted output accepted")
	}
	if checkReproduce(golden[:len(golden)-1], golden) == nil {
		t.Error("reproduce: truncated output accepted")
	}

	spec := paperSpec(3e6, []float64{16, 12, 8, 4})
	outs := mlckpt.Sweep([]mlckpt.SweepJob{{Spec: spec, Policy: mlckpt.MLOptScale}}, mlckpt.SweepOptions{Workers: 1})
	good := outs[0]
	if err := checkPlan(spec, mlckpt.MLOptScale, good); err != nil {
		t.Fatalf("plan: correct outcome rejected: %v", err)
	}
	for name, corrupt := range map[string]func(o *mlckpt.SweepOutcome){
		"wall clock": func(o *mlckpt.SweepOutcome) { o.Plan.ExpectedWallClockDays *= 1 + 1e-4 },
		"scale":      func(o *mlckpt.SweepOutcome) { o.Plan.Scale += 5000 },
		"interval":   func(o *mlckpt.SweepOutcome) { o.Plan.Intervals[0]++ },
		"schedule":   func(o *mlckpt.SweepOutcome) { o.Plan.X[1] *= 1.01 },
		"policy":     func(o *mlckpt.SweepOutcome) { o.Plan.Policy = mlckpt.SLOptScale },
		"error":      func(o *mlckpt.SweepOutcome) { o.Err = errors.New("injected") },
	} {
		o := good
		o.Plan.Intervals = append([]int(nil), good.Plan.Intervals...)
		o.Plan.X = append([]float64(nil), good.Plan.X...)
		corrupt(&o)
		if checkPlan(spec, mlckpt.MLOptScale, o) == nil {
			t.Errorf("plan: corrupted %s accepted", name)
		}
	}

	const digest = 0x1234
	done := experiments.RealResult{Completed: true, StateDigest: digest}
	if _, err := checkRecover(done, nil, digest); err != nil {
		t.Errorf("recover: golden state rejected: %v", err)
	}
	if _, err := checkRecover(experiments.RealResult{}, fmt.Errorf("rung 4: %w", fti.ErrExhausted), digest); err != nil {
		t.Errorf("recover: exhausted escalation counted as failed: %v", err)
	}
	corrupted := done
	corrupted.StateDigest ^= 1
	if _, err := checkRecover(corrupted, nil, digest); err == nil {
		t.Error("recover: corrupted final state accepted")
	}
	if _, err := checkRecover(experiments.RealResult{StateDigest: digest}, nil, digest); err == nil {
		t.Error("recover: truncated execution accepted")
	}
	if _, err := checkRecover(experiments.RealResult{}, experiments.ErrReal, digest); err == nil {
		t.Error("recover: unexpected error accepted")
	}

	// The pass counts a failing op as failed and carries on.
	s := &session{ops: 3, do: func(i int, _ opEnv) (opResult, error) {
		if i == 1 {
			return opResult{out: bad}, checkReproduce(bad, golden)
		}
		return opResult{out: golden, completed: true}, nil
	}}
	if p := runPass(s, nil, nil); p.failed != 1 || p.completed != 2 || p.firstErr == nil {
		t.Errorf("pass counted %d failed, %d completed (first error %v), want 1 and 2", p.failed, p.completed, p.firstErr)
	}
}

// TestHostTraceReadableByObstool writes host spans through the trace
// exporter and reads them back with the validator and decoder obstool uses.
func TestHostTraceReadableByObstool(t *testing.T) {
	h := newHostSpans("plan")
	for i := 0; i < 3; i++ {
		h.time("plan.sweep", i, func() { spin(time.Millisecond) })
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := cli.WriteTrace(h.col.Trace, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTraceJSON(data); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.DecodeTraceJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if ev := tr.Events("host/plan"); len(ev) != 3 || !ev[0].Span() || ev[2].Arg("op") != 2 {
		t.Errorf("decoded host track %+v", ev)
	}
	if got := len(h.durs["plan.sweep"]); got != 3 {
		t.Errorf("%d durations recorded, want 3", got)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no setup", w.Name)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	same := func(kind string, json []struct{ Name, Unit string }, prog []metricSpec) {
		if len(json) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(json), len(prog))
			return
		}
		for i := range json {
			if json[i].Name != prog[i].name || json[i].Unit != prog[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, json[i].Name, json[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics())
}
