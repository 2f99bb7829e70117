package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"mlckpt"
)

// planOpsPerSecond is the nominal request rate of the plan workload at
// GOMAXPROCS=1; a run serves seconds·planOpsPerSecond requests, so its work
// is fixed by --seconds rather than by how fast the machine happens to be.
const planOpsPerSecond = 1250

// planTolerance is the relative agreement required between a plan's
// reported E(T_w) and Formula 21 re-evaluated at the plan. The reported
// value is the solver's last outer step, whose μ_i come from the previous
// wall-clock estimate; Algorithm 1 stops once μ moves by at most 1e-9 in
// absolute terms, with the scale converged to 1e-6 relative, so the value
// is self-consistent only that far. Over 816,000 plans the disagreement
// reached 6.7e-6 (99.9th percentile 3.9e-9). Beyond 1e-5 it occurs only
// when the outer loop stops while the scale is still moving (README.md,
// "Known solver defects").
const planTolerance = 1e-5

// paperLevels are the paper's per-level checkpoint costs (seconds): L1–L3
// are constant, L4 (the PFS) grows with scale up to a saturation cap.
var paperLevels = []mlckpt.LevelSpec{
	{CheckpointConst: 0.866},
	{CheckpointConst: 2.586},
	{CheckpointConst: 3.886},
	{CheckpointConst: 5.5, CheckpointSlope: 0.0212, SaturationCap: 262144},
}

// paperSpec is the paper's Section IV problem at workload te (core-days).
func paperSpec(te float64, rates []float64) mlckpt.Spec {
	return mlckpt.Spec{
		TeCoreDays:     te,
		Speedup:        mlckpt.SpeedupSpec{Kind: "quadratic", Kappa: 0.46, IdealScale: 1e6},
		Levels:         append([]mlckpt.LevelSpec(nil), paperLevels...),
		AllocSeconds:   60,
		FailuresPerDay: rates,
	}
}

// The plan grid. Every request is one point of it, so the whole input
// space of the workload is finite and TestPlanGridAnswered checks every
// point. Each axis varies what the planner's answer depends on: 2–4 levels
// (the paper's lower levels plus its PFS level on top), per-level failure
// rates on a doubling ladder of 0.25–32/day (across and beyond the paper's
// 0.5–16), non-increasing from the lowest level up with the PFS rate at
// most 4/day, Te over 1M–10M core-days, the paper's quadratic speedup or
// Amdahl's law, and the PFS level's slope and saturation cap. The caps
// stop at the paper's 262144 cores: with 524288, slope 0.03 and a PFS rate
// of 4/day, the PFS checkpoint (15,734 s) nears the time between PFS
// failures and ML(ori-scale) stops at 200 outer iterations.
const gridMaxPFS = 4.0

var (
	gridTe      = []float64{1e6, 3e6, 1e7}
	gridSerial  = []float64{0, 1e-7, 1e-6} // 0: the paper's quadratic speedup
	gridSlope   = []float64{0.01, 0.0212, 0.03}
	gridCap     = []float64{65536, 131072, 262144}
	gridRates   = []float64{32, 16, 8, 4, 2, 1, 0.5, 0.25}
	gridSchemes = rateSchemes()
)

// rateSchemes lists every per-level rate vector of the grid: 2–4 rates
// from gridRates, non-increasing, the last (the PFS rate) at most
// gridMaxPFS.
func rateSchemes() [][]float64 {
	var out [][]float64
	var walk func(prefix []float64, from, levels int)
	walk = func(prefix []float64, from, levels int) {
		if len(prefix) == levels {
			if prefix[levels-1] <= gridMaxPFS {
				out = append(out, append([]float64(nil), prefix...))
			}
			return
		}
		for i := from; i < len(gridRates); i++ {
			walk(append(prefix, gridRates[i]), i, levels)
		}
	}
	for levels := 2; levels <= 4; levels++ {
		walk(nil, 0, levels)
	}
	return out
}

// planGridSize is the number of points of the plan grid.
func planGridSize() int {
	return len(gridSchemes) * len(gridTe) * len(gridSerial) * len(gridSlope) * len(gridCap)
}

// planGridSpec is point k (0 ≤ k < planGridSize) of the plan grid.
func planGridSpec(k int) mlckpt.Spec {
	pick := func(axis []float64) float64 {
		v := axis[k%len(axis)]
		k /= len(axis)
		return v
	}
	te, serial, slope, satCap := pick(gridTe), pick(gridSerial), pick(gridSlope), pick(gridCap)
	rates := gridSchemes[k]
	top := paperLevels[3]
	top.CheckpointSlope, top.SaturationCap = slope, satCap
	s := mlckpt.Spec{
		TeCoreDays:     te,
		Speedup:        mlckpt.SpeedupSpec{Kind: "quadratic", Kappa: 0.46, IdealScale: 1e6},
		Levels:         append(append([]mlckpt.LevelSpec(nil), paperLevels[:len(rates)-1]...), top),
		AllocSeconds:   60,
		FailuresPerDay: append([]float64(nil), rates...),
	}
	if serial > 0 {
		s.Speedup = mlckpt.SpeedupSpec{Kind: "amdahl", SerialFraction: serial, IdealScale: 1e6}
	}
	return s
}

// genPlanSpecs draws n requests from seed, uniformly over the plan grid.
func genPlanSpecs(seed uint64, n int) []mlckpt.Spec {
	r := newRNG(seed)
	size := planGridSize()
	specs := make([]mlckpt.Spec, n)
	for i := range specs {
		specs[i] = planGridSpec(r.intn(size))
	}
	return specs
}

// setupPlan generates the requests, checks the planner against the
// paper's published answer, and serves one untimed warm-up request.
func setupPlan(seed uint64, seconds int) (*session, error) {
	specs := genPlanSpecs(seed, seconds*planOpsPerSecond)
	requests, err := json.Marshal(specs)
	if err != nil {
		return nil, fmt.Errorf("plan: encode requests: %w", err)
	}
	if err := planProbe(); err != nil {
		return nil, err
	}
	s := &session{
		ops:      len(specs),
		requests: requests,
		do: func(i int, env opEnv) (opResult, error) {
			return servePlan(specs[i], env)
		},
	}
	if _, err := servePlan(paperSpec(3e6, []float64{16, 12, 8, 4}), opEnv{}); err != nil {
		return nil, fmt.Errorf("plan: warm-up request: %w", err)
	}
	return s, nil
}

// planProbe is the known-answer check: 16-12-8-4 under ML(opt-scale) at
// Te = 3M core-days is 582425 cores and 36.56 days (paper Section IV).
func planProbe() error {
	plan, err := mlckpt.Optimize(paperSpec(3e6, []float64{16, 12, 8, 4}), mlckpt.MLOptScale)
	if err != nil {
		return fmt.Errorf("plan: known-answer probe: %w", err)
	}
	if got := fmt.Sprintf("%d cores, %.2f days", plan.Scale, plan.ExpectedWallClockDays); got != "582425 cores, 36.56 days" {
		return fmt.Errorf("plan: known-answer probe: got %s, want 582425 cores, 36.56 days", got)
	}
	return nil
}

// servePlan solves one request under all four policies in one sweep at
// one worker, with no simulation stage (the `ckptopt -policy all` path),
// and checks every returned plan.
func servePlan(spec mlckpt.Spec, env opEnv) (opResult, error) {
	jobs := make([]mlckpt.SweepJob, len(mlckpt.Policies))
	for i, pol := range mlckpt.Policies {
		jobs[i] = mlckpt.SweepJob{Name: string(pol), Spec: spec, Policy: pol}
	}
	var outcomes []mlckpt.SweepOutcome
	env.host.time("plan.sweep", env.op, func() {
		outcomes = mlckpt.Sweep(jobs, mlckpt.SweepOptions{Workers: sweepWorkers, Obs: env.rec})
	})
	var out []byte
	for _, o := range outcomes {
		out = binary.LittleEndian.AppendUint64(out, uint64(o.Plan.Scale))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(o.Plan.ExpectedWallClockDays))
		for _, x := range o.Plan.X {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	if len(outcomes) != len(jobs) {
		return opResult{out: out}, fmt.Errorf("plan: %d outcomes for %d jobs", len(outcomes), len(jobs))
	}
	for i, o := range outcomes {
		if err := checkPlan(spec, jobs[i].Policy, o); err != nil {
			return opResult{out: out}, err
		}
	}
	return opResult{out: out, completed: true}, nil
}

// checkPlan verifies one outcome: no error, the requested policy, interval
// counts that are the rounded schedule, and an E(T_w) that Formula 21,
// re-evaluated at the plan, reproduces within planTolerance.
func checkPlan(spec mlckpt.Spec, pol mlckpt.Policy, o mlckpt.SweepOutcome) error {
	if o.Err != nil {
		return fmt.Errorf("plan %s: %w", pol, o.Err)
	}
	p := o.Plan
	if p.Policy != pol || len(p.X) != len(spec.Levels) || len(p.Intervals) != len(p.X) || p.Scale < 1 {
		return fmt.Errorf("plan %s: malformed plan %+v", pol, p)
	}
	for i, x := range p.X {
		if want := max(1, int(x+0.5)); p.Intervals[i] != want {
			return fmt.Errorf("plan %s: interval %d is %d, rounded schedule is %d", pol, i+1, p.Intervals[i], want)
		}
	}
	if lo, hi := formula21Range(spec, p); !(p.ExpectedWallClockDays >= lo*(1-planTolerance) && p.ExpectedWallClockDays <= hi*(1+planTolerance)) {
		return fmt.Errorf("plan %s: E(T_w) %.17g days, Formula 21 gives %.17g to %.17g", pol, p.ExpectedWallClockDays, lo, hi)
	}
	return nil
}

// formula21Range brackets Formula 21 at a plan. A plan reports its scale
// rounded to whole cores, so under the opt-scale policies the formula is
// evaluated at both ends and the middle of that rounding interval; the
// ori-scale policies pin the scale to the ideal scale exactly.
func formula21Range(spec mlckpt.Spec, p mlckpt.Plan) (lo, hi float64) {
	if p.Policy == mlckpt.MLOriScale || p.Policy == mlckpt.SLOriScale {
		e := formula21Days(spec, p, spec.Speedup.IdealScale)
		return e, e
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, d := range []float64{-0.5, 0, 0.5} {
		e := formula21Days(spec, p, float64(p.Scale)+d)
		lo, hi = math.Min(lo, e), math.Max(hi, e)
	}
	return lo, hi
}

// formula21Days evaluates the paper's Formula 21 at a plan's interval
// counts and scale n, written out here from the Spec's documented meaning
// so the check shares no code with the solver:
//
//	E(T_w) = T_e/g(N) + Σ C_i(N)(x_i−1) + Σ μ_i (E(Γ_i) + A + R_i(N))
//	E(Γ_i) = (T_e/g(N) + Σ_{k≤i} C_k(N) x_k) / (2 x_i)
//	μ_i    = r_i · N/N_b · T/86400
//
// T is the plan's own E(T_w) — the fixed point Algorithm 1 converges to —
// except under SL(ori-scale), classic Young, whose μ_i stay at the
// failure-free productive time. Single-level policies checkpoint only at
// the top level and fold every failure class into it.
func formula21Days(spec mlckpt.Spec, p mlckpt.Plan, n float64) float64 {
	const day = 86400.0
	levels, rates, x := spec.Levels, spec.FailuresPerDay, p.X
	if p.Policy == mlckpt.SLOptScale || p.Policy == mlckpt.SLOriScale {
		total := 0.0
		for _, r := range rates {
			total += r
		}
		top := len(levels) - 1
		levels, rates, x = levels[top:], []float64{total}, x[top:]
	}
	var g float64
	switch sp := spec.Speedup; sp.Kind {
	case "amdahl":
		g = n / (1 + sp.SerialFraction*(n-1))
	default:
		g = -sp.Kappa/(2*sp.IdealScale)*n*n + sp.Kappa*n
	}
	productive := spec.TeCoreDays * day / g
	baseline := spec.BaselineScale
	if baseline <= 0 {
		baseline = spec.Speedup.IdealScale
	}
	t := p.ExpectedWallClockDays * day
	if p.Policy == mlckpt.SLOriScale {
		t = productive
	}
	capped := func(l mlckpt.LevelSpec) float64 {
		if l.SaturationCap > 0 && n > l.SaturationCap {
			return l.SaturationCap
		}
		return n
	}
	e := productive
	lower := 0.0 // Σ_{k≤i} C_k x_k
	for i, l := range levels {
		c := l.CheckpointConst + l.CheckpointSlope*capped(l)
		r := l.RecoveryConst + l.RecoverySlope*capped(l)
		if l.RecoveryConst == 0 && l.RecoverySlope == 0 {
			r = c / 2
		}
		lower += c * x[i]
		rollback := (productive + lower) / (2 * x[i])
		mu := rates[i] * n / baseline * t / day
		e += c*(x[i]-1) + mu*(rollback+spec.AllocSeconds+r)
	}
	return e / day
}
