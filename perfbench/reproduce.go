package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"mlckpt/internal/experiments"
	"mlckpt/internal/obs"
	"mlckpt/internal/sweep"
)

// reproduceIDs is the exact id list of `experiments all`, in its order.
var reproduceIDs = []string{"fig1", "fig2", "fig3", "fig4", "tab2", "fig5", "tab3", "fig6", "fig7", "tab4", "conv", "ablate", "sens"}

// goldenPath is the reference output of `experiments all`, relative to
// the checkout root the benchmark runs from.
const goldenPath = "docs_results_reference.txt"

// A run does seconds/reproducePassSeconds passes (at least one), so the
// work of a run is fixed by --seconds. A pass takes 16–21 s at one worker
// and GOMAXPROCS=1 on a 2-vCPU Xeon VM, so a 30 s run makes two passes and
// measures 36–43 s: with one pass per run, wall_s spread 0.15–0.22
// between ten seeds, close to its bound.
const reproducePassSeconds = 15

// reproduceSettings are the size knobs of `experiments all`.
type reproduceSettings struct {
	simRuns      int // 0 = the paper's 100-run means
	fig2MaxScale int
	fig4         [3]int // ranks, real runs, simulated runs
	tab2Scales   []int
}

// allSettings are cmd/experiments' defaults; warmUpSettings shrink every
// id to its smallest useful size, so the warm-up reaches every layer the
// timed pass does at about a sixteenth of its cost.
var (
	allSettings    = reproduceSettings{0, 1024, [3]int{32, 10, 400}, []int{128, 256, 384, 512, 1024}}
	warmUpSettings = reproduceSettings{2, 16, [3]int{16, 1, 20}, []int{128}}
)

// setupReproduce loads the golden file and makes one untimed warm-up pass.
// The golden file fixes the inputs, so the seed does not apply.
func setupReproduce(_ uint64, seconds int) (*session, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reproduce: golden reference: %w", err)
	}
	if _, err := reproducePass(warmUpSettings, opEnv{}); err != nil {
		return nil, fmt.Errorf("reproduce: warm-up pass: %w", err)
	}
	passes := seconds / reproducePassSeconds
	if passes < 1 {
		passes = 1
	}
	return &session{
		ops:      passes,
		requests: []byte(strings.Join(reproduceIDs, " ") + " (cmd/experiments defaults, workers 1)"),
		do: func(_ int, env opEnv) (opResult, error) {
			out, err := reproducePass(allSettings, env)
			if err != nil {
				return opResult{out: []byte(err.Error())}, err
			}
			return opResult{out: out, completed: true}, checkReproduce(out, golden)
		},
	}, nil
}

// checkReproduce requires the rendered bytes to equal the golden file.
func checkReproduce(got, golden []byte) error {
	if bytes.Equal(got, golden) {
		return nil
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(golden), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("reproduce: output differs from %s at line %d: got %q, want %q", goldenPath, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("reproduce: output has %d lines, %s has %d", len(gl), goldenPath, len(wl))
}

// reproducePass renders every id of `experiments all` through one fresh
// sweep cache, as one cmd/experiments invocation does, and returns the
// bytes that command prints on stdout.
func reproducePass(set reproduceSettings, env opEnv) ([]byte, error) {
	cache := sweep.NewCache()
	grid := experiments.Grid{Workers: sweepWorkers, Cache: cache, Obs: env.rec}
	if env.rec != nil {
		grid.Clock = obs.WallClock
	}
	var out bytes.Buffer
	for _, id := range reproduceIDs {
		var text string
		var err error
		env.host.time("experiments."+id, env.op, func() { text, err = renderExperiment(id, set, grid) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out.WriteString(text)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

// renderExperiment mirrors cmd/experiments' runExperiment for the ids of
// "all".
func renderExperiment(id string, set reproduceSettings, g experiments.Grid) (string, error) {
	simRuns := set.simRuns
	switch id {
	case "fig1":
		return experiments.Fig1(50).Render(), nil
	case "fig2":
		return render(experiments.Fig2Grid(set.fig2MaxScale, g))
	case "fig3":
		return render(experiments.Fig3(9))
	case "fig4":
		return render(experiments.Fig4Grid(set.fig4[0], set.fig4[1], set.fig4[2], g))
	case "tab2":
		return render(experiments.Tab2Grid(set.tab2Scales, g))
	case "fig5":
		return render(experiments.EvalGrid(3e6, simRuns, nil, g))
	case "tab3":
		r, err := experiments.EvalGrid(3e6, simRuns, nil, g)
		if err != nil {
			return "", err
		}
		return r.RenderTab3(), nil
	case "fig6":
		return render(experiments.EvalGrid(10e6, simRuns, nil, g))
	case "fig7":
		r3, err := experiments.EvalGrid(3e6, simRuns, nil, g)
		if err != nil {
			return "", err
		}
		r10, err := experiments.EvalGrid(10e6, simRuns, nil, g)
		if err != nil {
			return "", err
		}
		return r3.RenderFig7() + r10.RenderFig7(), nil
	case "tab4":
		return render(experiments.Tab4Grid(simRuns, nil, g))
	case "conv":
		return render(experiments.ConvergenceGrid(nil, g))
	case "ablate":
		return render(experiments.Ablate("16-12-8-4", simRuns))
	case "sens":
		return render(experiments.Sensitivity("16-12-8-4"))
	}
	return "", fmt.Errorf("unknown experiment id %q", id)
}

// render returns r's rendering, or err when the experiment failed.
func render[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
