package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"mlckpt/internal/experiments"
	"mlckpt/internal/failure"
	"mlckpt/internal/fti"
	"mlckpt/internal/heat"
	"mlckpt/internal/inject"
	"mlckpt/internal/mpisim"
	"mlckpt/internal/storage"
)

// recoverOpsPerSecond is the nominal op rate of the recover workload at
// GOMAXPROCS=1; a run does seconds·recoverOpsPerSecond executions.
const recoverOpsPerSecond = 115

// recoverRanks is the mpisim world size of every execution.
const recoverRanks = 16

// recoverRequest is one execution: the failure process seed and the fault
// plan's rates. The fixed rates every plan shares are those of the chaos
// grid (internal/experiments/chaos.go).
type recoverRequest struct {
	Seed     uint64      `json:"seed"`
	PlanSeed uint64      `json:"plan_seed"`
	Corrupt  [4]float64  `json:"corrupt"`
	Pair     float64     `json:"pair"`
	Parity   float64     `json:"parity"`
	spec     inject.Spec // the plan's rates, built from the fields above
}

// genRecoverRequests draws n executions from seed: a failure seed and a
// fault plan per execution, with at-rest corruption 0–0.4 per level and
// correlated partner-pair and parity-holder crashes 0–0.5. The six rates
// are Latin-hypercube sampled — each rate's range is cut into n equal
// strata and every stratum is used once, in a seeded order — so every
// seed covers the ranges evenly and runs differ only in the draws inside
// them.
func genRecoverRequests(seed uint64, n int) []recoverRequest {
	r := newRNG(seed)
	var strata [6][]float64
	for d := range strata {
		strata[d] = make([]float64, n)
		for i, k := range r.perm(n) {
			strata[d][i] = (float64(k) + r.float()) / float64(n)
		}
	}
	reqs := make([]recoverRequest, n)
	for i := range reqs {
		q := recoverRequest{Seed: r.next(), PlanSeed: r.next()}
		for l := range q.Corrupt {
			q.Corrupt[l] = 0.4 * strata[l][i]
		}
		q.Pair, q.Parity = 0.5*strata[4][i], 0.5*strata[5][i]
		q.spec = inject.Spec{
			CorruptRate:       q.Corrupt[:],
			TruncateFrac:      0.25,
			PartnerPairRate:   q.Pair,
			ParityHolderRate:  q.Parity,
			CkptAbortRate:     0.05,
			RecoveryCrashRate: 0.15,
			PFSWriteFailRate:  0.2,
			PFSReadFailRate:   0.2,
		}
		reqs[i] = q
	}
	return reqs
}

// recoverRetry is the PFS retry budget. Under the plans' 20% transient
// read and write rates the default budget of three retries ran out on
// about one execution in 400, and seven retries on two in 34,500. With
// fifteen, a run out needs sixteen failed attempts in a row (odds 6.6e-12
// per PFS operation).
var recoverRetry = storage.RetryPolicy{MaxRetries: 15, Base: 0.5, Factor: 1.5}

// recoverConfig is the chaos grid's execution: heat on a 64×64 grid for
// 600 iterations under FTI, with failure rates high enough that several
// failures strike every execution, and an exhausted recovery escalation
// reported as an error instead of a silent restart from scratch.
func recoverConfig(seed uint64) experiments.RealConfig {
	return experiments.RealConfig{
		Ranks:          recoverRanks,
		Heat:           heat.Config{GridX: 64, GridY: 64, Iterations: 600, CellTime: 2e-4, TopTemp: 100},
		FTI:            fti.DefaultConfig(),
		Intervals:      [fti.Levels]int{48, 24, 12, 6},
		Rates:          failure.MustParseRates("8000-4000-800-400", recoverRanks),
		Alloc:          0.5,
		Cost:           mpisim.DefaultCostModel(),
		MaxWall:        600,
		Seed:           seed,
		DisableScratch: true,
		Retry:          recoverRetry,
	}
}

// goldenDigest runs the execution fault-free and returns the final-state
// digest every completed faulty execution must reproduce.
func goldenDigest() (uint64, error) {
	cfg := recoverConfig(1)
	cfg.Rates = failure.MustParseRates("0-0-0-0", recoverRanks)
	plan, err := inject.Compile(inject.Spec{}, 1, "perfbench/golden")
	if err != nil {
		return 0, err
	}
	cfg.Inject = plan
	res, err := experiments.RunReal(cfg)
	if err != nil {
		return 0, fmt.Errorf("recover: golden run: %w", err)
	}
	if !res.Completed {
		return 0, errors.New("recover: golden run did not complete")
	}
	return res.StateDigest, nil
}

// setupRecover generates the requests, compiles one fault plan each,
// computes the golden digest, and serves one untimed warm-up execution.
func setupRecover(seed uint64, seconds int) (*session, error) {
	reqs := genRecoverRequests(seed, seconds*recoverOpsPerSecond)
	requests, err := json.Marshal(reqs)
	if err != nil {
		return nil, fmt.Errorf("recover: encode requests: %w", err)
	}
	plans := make([]*inject.Plan, len(reqs))
	for i, q := range reqs {
		if plans[i], err = inject.Compile(q.spec, q.PlanSeed, fmt.Sprintf("perfbench/recover/%d", i)); err != nil {
			return nil, fmt.Errorf("recover: fault plan %d: %w", i, err)
		}
	}
	golden, err := goldenDigest()
	if err != nil {
		return nil, err
	}
	s := &session{
		ops:      len(reqs),
		requests: requests,
		do: func(i int, env opEnv) (opResult, error) {
			cfg := recoverConfig(reqs[i].Seed)
			cfg.Inject = plans[i]
			cfg.Obs = env.rec
			var res experiments.RealResult
			var runErr error
			env.host.time("recover.run_real", env.op, func() { res, runErr = experiments.RunReal(cfg) })
			return checkRecover(res, runErr, golden)
		},
	}
	// The warm-up is the same execution for every seed, so set-up time
	// does not depend on which request happens to come first.
	warm := recoverConfig(1)
	if warm.Inject, err = inject.Compile(genRecoverRequests(1, 1)[0].spec, 1, "perfbench/recover/warm-up"); err != nil {
		return nil, err
	}
	res, err := experiments.RunReal(warm)
	if _, err := checkRecover(res, err, golden); err != nil {
		return nil, fmt.Errorf("recover: warm-up execution: %w", err)
	}
	return s, nil
}

// checkRecover classifies one execution. A completed execution must end in
// the golden state; an exhausted escalation (fti.ErrExhausted) is an
// answered op; anything else fails.
func checkRecover(res experiments.RealResult, err error, golden uint64) (opResult, error) {
	if err != nil {
		out := []byte(err.Error())
		if errors.Is(err, fti.ErrExhausted) {
			return opResult{out: out}, nil
		}
		return opResult{out: out}, fmt.Errorf("recover: %w", err)
	}
	out := binary.LittleEndian.AppendUint64(nil, res.StateDigest)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(res.WallClock))
	if !res.Completed {
		return opResult{out: out}, errors.New("recover: execution truncated at the wall-clock horizon")
	}
	if res.StateDigest != golden {
		return opResult{out: out}, fmt.Errorf("recover: final state digest %016x, golden %016x", res.StateDigest, golden)
	}
	return opResult{out: out, completed: true}, nil
}
