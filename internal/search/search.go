// Package search implements design-space optimisation on top of the
// surrogate model — the use the paper's introduction motivates ("machine
// learning can aid this search ... by guiding the parameter search towards
// optimal values"). It offers random screening and discrete hill-climbing
// refinement over the constrained 30-parameter space, with the surrogate's
// microsecond predictions standing in for multi-second simulations.
package search

import (
	"fmt"

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

// The search protocol: Best screens screenCandidates random configurations,
// then runs up to refineSweeps hill-climbing sweeps from the winner.
const (
	screenCandidates = 20_000
	refineSweeps     = 3
)

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

// Best screens screenCandidates random candidates drawn from seed and
// hill-climbs the winner across each parameter's discrete values, repairing
// the paper's sampling constraints after every move.
func Best(obj Objective, seed int64) (Result, error) {
	if obj == nil {
		return Result{}, fmt.Errorf("search: nil objective")
	}
	// Screening draws candidate i from the same indexed config source the
	// collection engine uses (params.ConfigAt), so the pool is stable per
	// (seed, index) and screening can be split or resumed like a
	// collection run.
	best := params.ConfigAt(seed, 0)
	bestScore := obj(best)
	for i := 1; i < screenCandidates; i++ {
		cfg := params.ConfigAt(seed, i)
		if s := obj(cfg); s < bestScore {
			bestScore = s
			best = cfg
		}
	}
	best, bestScore, refined := refine(obj, best, bestScore)
	return Result{Config: best, Score: bestScore, Screened: screenCandidates, Refined: refined}, nil
}

// refine performs coordinate-descent over the discrete parameter values.
func refine(obj Objective, cfg params.Config, score float64) (params.Config, float64, int) {
	space := params.Space()
	evals := 0
	for sweep := 0; sweep < refineSweeps; sweep++ {
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
