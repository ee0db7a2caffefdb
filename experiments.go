package armdse

import (
	"context"

	"armdse/internal/experiments"
)

// Experiment types re-exported for regenerating the paper's tables/figures.
type (
	// ExperimentOptions configure the experiment drivers.
	ExperimentOptions = experiments.Options
	// ExperimentResult is one regenerated table or figure.
	ExperimentResult = experiments.Result
	// ExperimentRunner is one named experiment driver.
	ExperimentRunner = experiments.Runner
)

// Experiments returns every paper table/figure driver in paper order:
// fig1, table1, table2, table3, table4, fig2, fig3, fig4, fig5, fig6, fig7,
// fig8.
func Experiments() []ExperimentRunner { return experiments.All() }

// ExperimentsWithExtensions returns the paper experiments followed by the
// extension experiments: extports, extunified, extprefetch, extforest,
// extmulticore and extstalls.
func ExperimentsWithExtensions() []ExperimentRunner { return experiments.AllWithExtensions() }

// ExperimentByID returns the driver with the given ID.
func ExperimentByID(id string) (ExperimentRunner, error) { return experiments.ByID(id) }

// CollectExperimentData gathers the shared dataset read by the experiments
// whose runner has SharedData set, honouring opt.Data when already collected.
func CollectExperimentData(ctx context.Context, opt ExperimentOptions) (*Dataset, error) {
	return experiments.CollectData(ctx, opt)
}
