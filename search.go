package armdse

import (
	"armdse/internal/dtree"
	"armdse/internal/params"
	"armdse/internal/search"
)

// Design-space search types (see internal/search).
type (
	// Objective scores a configuration; lower is better.
	Objective = search.Objective
	// SearchOptions configure SearchBest.
	SearchOptions = search.Options
	// SearchResult is the outcome of SearchBest.
	SearchResult = search.Result
	// Predictor is any trained model (Tree or Forest).
	Predictor = dtree.Predictor
)

// SearchBest screens random design-space candidates against an objective and
// hill-climbs the winner over the discrete parameter values, repairing the
// paper's sampling constraints after each move — the surrogate-guided
// optimisation loop the paper's introduction motivates.
func SearchBest(obj Objective, opt SearchOptions) (SearchResult, error) {
	return search.Best(obj, opt)
}

// SurrogateObjective builds an Objective from a trained surrogate.
func SurrogateObjective(m Predictor) Objective { return search.SurrogateObjective(m) }

// WeightedObjective combines per-application objectives with weights — the
// multi-application co-design target.
func WeightedObjective(objs []Objective, weights []float64) (Objective, error) {
	return search.WeightedObjective(objs, weights)
}

// SaveModel writes any trained model — Tree or Forest — to path in the
// versioned model envelope ({"version":1,"kind":...}).
func SaveModel(m Predictor, path string) error { return dtree.SaveModel(m, path) }

// LoadModel reads any model written by SaveModel, returning a
// *Tree or *Forest behind the Predictor interface. Files written before the
// envelope existed (bare tree JSON) load as trees.
func LoadModel(path string) (Predictor, error) { return dtree.LoadModel(path) }

// PartialDependence computes a model's mean prediction as one feature (by
// canonical column index) sweeps the given values, holding the dataset's
// rows as background — the surrogate-side analogue of the paper's Figs. 6-8.
func PartialDependence(m Predictor, d *Dataset, col int, values []float64) ([]float64, error) {
	return dtree.PartialDependence(m, d.X, col, values)
}

// Adaptive search-loop strategy names accepted by NewProposer and dsegen's
// -search flag.
const (
	// StrategyUniform proposes the classic fixed uniform sweep in batches —
	// the control arm; its dataset is byte-identical to a fixed sweep.
	StrategyUniform = search.StrategyUniform
	// StrategyUCB proposes candidates minimising mean − 2·spread of the
	// per-application forests (optimism under uncertainty).
	StrategyUCB = search.StrategyUCB
	// StrategyEI proposes candidates by closed-form expected improvement.
	StrategyEI = search.StrategyEI
)

// SearchStrategies lists the recognised proposal strategy names.
func SearchStrategies() []string { return search.Strategies() }

// Adaptive search-loop types; see internal/search for the determinism
// contract (batch proposals are pure functions of the completed prior rows
// and the seed, so datasets are byte-identical at any worker count).
type (
	// ProposeOptions configure NewProposer.
	ProposeOptions = search.ProposeOptions
	// Proposer generates design-space configurations batch by batch,
	// feeding completed results back into the next proposal — the
	// BatchSource the adaptive loop plugs into Collect.
	Proposer = search.Proposer
	// ParetoPoint is one dataset row on the (cycles, cost) plane.
	ParetoPoint = search.ParetoPoint
)

// NewProposer builds an adaptive batch proposer for the given strategy.
func NewProposer(opt ProposeOptions) (*Proposer, error) { return search.NewProposer(opt) }

// ParetoFront returns the non-dominated subset of points (no other point at
// least as good on both cycles and cost, strictly better on one), sorted by
// ascending cycles.
func ParetoFront(points []ParetoPoint) []ParetoPoint { return search.ParetoFront(points) }

// ParetoFromDataset projects a dataset onto (cycles of app, CostProxy) and
// extracts its Pareto front — the co-design menu of a fixed-budget study.
func ParetoFromDataset(d *Dataset, app string) ([]ParetoPoint, error) {
	return search.ParetoFromDataset(d, app)
}

// CostProxy scores a configuration's hardware cost (area/power proxy);
// lower is cheaper. The second objective of ParetoFromDataset.
func CostProxy(c Config) float64 { return params.CostProxy(c) }
