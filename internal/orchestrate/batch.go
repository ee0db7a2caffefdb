package orchestrate

import (
	"fmt"

	"armdse/internal/dataset"
	"armdse/internal/params"
)

// The batch-source seam. A fixed sweep decides its configuration set before
// the run starts; an adaptive search decides it *during* the run, proposing
// each batch from the results of the previous ones. BatchSource is the
// generalisation: the engine asks for one batch at a time, runs it to a
// full barrier, and feeds every completed row back before asking for the
// next. Batches and fixed sources run through the engine's one generation
// loop: each batch is one generation, and so is a fixed source (cut into
// warmup and refresh generations under the hybrid evaluator).
//
// Determinism contract: the engine assigns batch g the contiguous global
// indices [base, base+len(batch)) where base is the total size of batches
// 0..g-1, and calls NextBatch with exactly the rows whose Index < base —
// i.e. the complete results of all earlier batches, sorted by index, never
// a partial batch. A proposer whose output is a pure function of its own
// seed, the call number and those rows therefore yields the same batches
// at any worker count, and on resume: journaled rows from an interrupted
// run re-enter through Engine.Prior and reproduce the same proposal
// sequence, while Engine.Skip prevents re-simulating them.

// BatchSource proposes configuration batches during a run.
type BatchSource interface {
	// NextBatch returns the next batch of configurations given the rows of
	// all completed earlier batches (sorted by Index, failed rows
	// included), or ok=false when the source is exhausted. An empty batch
	// with ok=true is treated as exhaustion.
	NextBatch(prior []Row) (batch []params.Config, ok bool)
}

// Budgeter is an optional BatchSource extension reporting the total number
// of configurations the source intends to propose — the engine's
// progress-total and ETA hint. Sources with data-dependent stopping simply
// omit it.
type Budgeter interface {
	Budget() int
}

// BatchStats describe the cost of a BatchSource's most recent NextBatch
// call — the generation-barrier work (surrogate refits, candidate-pool
// scoring) every simulation worker idles behind. Purely observational:
// nothing here feeds back into proposals.
type BatchStats struct {
	// PoolScored is the number of candidate configurations generated and
	// scored for the batch (0 for uniform/warmup batches).
	PoolScored int
	// RefitNanos is the wall time spent refitting the per-app surrogate
	// forests.
	RefitNanos int64
	// ScoreNanos is the wall time spent generating, repairing and scoring
	// the candidate pool.
	ScoreNanos int64
	// TreesRetrained and TreesRetained split the ensembles' trees into
	// those retrained this generation and those warm-started (reused by
	// reference) from the previous one.
	TreesRetrained int
	TreesRetained  int
}

// BatchStatsSource is an optional BatchSource extension exposing the cost
// of the most recent NextBatch call. The engine polls it after each barrier
// and feeds the numbers into the search telemetry (barrier histogram,
// pool-scored counter, runlog barrier records).
type BatchStatsSource interface {
	LastBatchStats() BatchStats
}

// PriorRowsFromJournal reconstructs the engine-visible rows of an
// interrupted run from its on-disk journal, for Engine.Prior on resume.
// The reconstruction is exact where the proposer looks: index, feature
// vector, per-app targets and the failed flag all round-trip through the
// journal's full-precision float encoding. Failed rows come back with
// Row.Err set (and nil targets), exactly as Row.Failed reported them going
// in.
func PriorRowsFromJournal(path string) ([]Row, error) {
	_, srows, err := dataset.ReadStreamRows(path)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(srows))
	for _, sr := range srows {
		row := Row{Index: sr.Index, Features: sr.Features, Targets: sr.Targets}
		if sr.Failed {
			row.Err = fmt.Errorf("orchestrate: journaled failure at index %d", sr.Index)
			row.Targets = nil
		}
		if cfg, err := params.FromFeatures(sr.Features); err == nil {
			row.Config = cfg
		}
		rows = append(rows, row)
	}
	return rows, nil
}
