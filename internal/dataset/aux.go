package dataset

import "fmt"

// Auxiliary columns (schema v2). Alongside the feature matrix and the
// cycle-count targets, a dataset may carry named auxiliary observation
// columns — per-run measurements that are not design-space inputs and not
// primary regression targets. The stall-attribution pipeline stores its
// per-class breakdowns this way, one "stall:<app>:<class>" column per
// (application, stall class) pair. A dataset with no aux columns is schema
// v1, byte-identical on disk to files written before aux columns existed,
// and v1 files load unchanged.

// auxPrefix marks auxiliary (stall-breakdown) columns in CSV headers.
const auxPrefix = "stall:"

// StallColumn names the aux column holding app's cycle count attributed to
// the named stall class.
func StallColumn(app, class string) string {
	return auxPrefix + app + ":" + class
}

// StallColumns returns the aux column set of a collection over the given
// applications and stall classes, in canonical order (app-major, class
// order preserved).
func StallColumns(apps, classes []string) []string {
	out := make([]string, 0, len(apps)*len(classes))
	for _, a := range apps {
		for _, c := range classes {
			out = append(out, StallColumn(a, c))
		}
	}
	return out
}

// NewWithAux builds an empty dataset with the given feature, target and
// auxiliary columns. Empty auxNames is exactly New: a schema-v1 dataset.
func NewWithAux(featureNames, apps, auxNames []string) *Dataset {
	d := New(featureNames, apps)
	if len(auxNames) > 0 {
		d.AuxNames = append([]string(nil), auxNames...)
		d.Aux = make(map[string][]float64, len(auxNames))
		for _, n := range d.AuxNames {
			d.Aux[n] = nil
		}
	}
	return d
}

// SchemaVersion reports the on-disk schema the dataset writes: 1 for the
// original features+targets layout, 2 when auxiliary columns are present.
func (d *Dataset) SchemaVersion() int {
	if len(d.AuxNames) > 0 {
		return 2
	}
	return 1
}

// AppendFull adds one row with auxiliary values; aux must cover every aux
// column (it is ignored when the dataset has none).
func (d *Dataset) AppendFull(features []float64, targets, aux map[string]float64) error {
	for _, n := range d.AuxNames {
		if _, ok := aux[n]; !ok {
			return fmt.Errorf("dataset: row missing aux column %q", n)
		}
	}
	if err := d.appendRow(features, targets); err != nil {
		return err
	}
	for _, n := range d.AuxNames {
		d.Aux[n] = append(d.Aux[n], aux[n])
	}
	return nil
}

// AuxColumn returns the named auxiliary column.
func (d *Dataset) AuxColumn(name string) ([]float64, error) {
	v, ok := d.Aux[name]
	if !ok {
		return nil, fmt.Errorf("dataset: no aux column %q", name)
	}
	return v, nil
}

// StallTarget returns app's breakdown column for the given stall class —
// the per-stall-class regression target for surrogate training.
func (d *Dataset) StallTarget(app, class string) ([]float64, error) {
	return d.AuxColumn(StallColumn(app, class))
}
