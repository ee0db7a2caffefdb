package armdse

import "armdse/internal/search"

// Adaptive search-loop types; see internal/search for the determinism
// contract (batch proposals are pure functions of the completed prior rows
// and the seed, so datasets are byte-identical at any worker count).
type (
	// ProposeOptions configure NewProposer; Strategy is "uniform" (the
	// fixed sweep in batches, the control arm), "ucb" or "ei".
	ProposeOptions = search.ProposeOptions
	// Proposer generates design-space configurations batch by batch,
	// feeding completed results back into the next proposal — the
	// BatchSource the adaptive loop plugs into Collect.
	Proposer = search.Proposer
)

// NewProposer builds an adaptive batch proposer for the given strategy.
func NewProposer(opt ProposeOptions) (*Proposer, error) { return search.NewProposer(opt) }
