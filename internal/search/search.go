// Package search implements design-space optimisation on top of the
// surrogate model — the use the paper's introduction motivates ("machine
// learning can aid this search ... by guiding the parameter search towards
// optimal values"). It offers random screening and discrete hill-climbing
// refinement over the constrained 30-parameter space, with the surrogate's
// microsecond predictions standing in for multi-second simulations.
package search

import (
	"fmt"
	"math"

	"armdse/internal/dtree"
	"armdse/internal/params"
)

// Objective scores a configuration; lower is better (e.g. predicted cycles).
type Objective func(cfg params.Config) float64

// SurrogateObjective builds an Objective from any trained predictor (tree or
// forest) over the canonical feature encoding.
func SurrogateObjective(m dtree.Predictor) Objective {
	return func(cfg params.Config) float64 {
		return m.Predict(cfg.Features())
	}
}

// WeightedObjective combines per-application objectives with weights — the
// A64FX-style co-design target of performing well on a finite application
// set. Weights need not sum to one.
func WeightedObjective(objs []Objective, weights []float64) (Objective, error) {
	if len(objs) == 0 || len(objs) != len(weights) {
		return nil, fmt.Errorf("search: %d objectives with %d weights", len(objs), len(weights))
	}
	return func(cfg params.Config) float64 {
		var s float64
		for i, o := range objs {
			s += weights[i] * o(cfg)
		}
		return s
	}, nil
}

// Options configure a search.
type Options struct {
	// Seed drives candidate sampling.
	Seed int64
	// Candidates is the random screening pool size (default 10000).
	Candidates int
	// Feasible, when non-nil, rejects configurations (e.g. an area or
	// power budget expressed over the parameters).
	Feasible func(cfg params.Config) bool
	// RefineSteps bounds hill-climbing sweeps after screening (default 3;
	// 0 disables refinement).
	RefineSteps int
}

// Result is the outcome of a search.
type Result struct {
	// Config is the best configuration found.
	Config params.Config
	// Score is its objective value.
	Score float64
	// Screened and Refined count objective evaluations in each phase.
	Screened int
	Refined  int
}

// Best screens random candidates and hill-climbs the winner across each
// parameter's discrete values, repairing the paper's sampling constraints
// after every move.
func Best(obj Objective, opt Options) (Result, error) {
	if obj == nil {
		return Result{}, fmt.Errorf("search: nil objective")
	}
	if opt.Candidates <= 0 {
		opt.Candidates = 10_000
	}
	if opt.RefineSteps < 0 {
		opt.RefineSteps = 0
	}

	best := params.Config{}
	bestScore := math.Inf(1)
	screened := 0
	// Screening draws candidate i from the same indexed config source the
	// collection engine uses (params.ConfigAt), so the pool is stable per
	// (seed, index) and screening can be split or resumed like a
	// collection run.
	for i := 0; i < opt.Candidates; i++ {
		cfg := params.ConfigAt(opt.Seed, i)
		if opt.Feasible != nil && !opt.Feasible(cfg) {
			continue
		}
		screened++
		if s := obj(cfg); s < bestScore {
			bestScore = s
			best = cfg
		}
	}
	if math.IsInf(bestScore, 1) {
		return Result{}, fmt.Errorf("search: no feasible candidate among %d", opt.Candidates)
	}

	refined := 0
	if opt.RefineSteps > 0 {
		best, bestScore, refined = refine(obj, best, bestScore, opt)
	}
	return Result{Config: best, Score: bestScore, Screened: screened, Refined: refined}, nil
}

// refine performs coordinate-descent over the discrete parameter values.
func refine(obj Objective, cfg params.Config, score float64, opt Options) (params.Config, float64, int) {
	space := params.Space()
	evals := 0
	for sweep := 0; sweep < opt.RefineSteps; sweep++ {
		improved := false
		feats := cfg.Features()
		for col, p := range space {
			current := feats[col]
			for _, v := range p.Values() {
				if v == current {
					continue
				}
				trial := append([]float64(nil), feats...)
				trial[col] = v
				cand, err := params.FromFeatures(trial)
				if err != nil {
					continue
				}
				params.Repair(&cand)
				if cand.Validate() != nil {
					continue
				}
				if opt.Feasible != nil && !opt.Feasible(cand) {
					continue
				}
				evals++
				if s := obj(cand); s < score {
					score = s
					cfg = cand
					feats = cfg.Features()
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return cfg, score, evals
}
