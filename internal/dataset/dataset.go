// Package dataset stores the study's collected data: one row per sampled
// configuration holding the 30 design-space features plus the simulated
// cycle count of each application, with CSV persistence, randomised
// train/test splitting, and the slicing operations the paper's analysis
// uses (constraining a feature to one value, binning by a feature).
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// targetPrefix marks target (cycle-count) columns in CSV headers.
const targetPrefix = "cycles:"

// Dataset is a feature matrix with one or more named target columns.
type Dataset struct {
	// FeatureNames are the input column names, in order.
	FeatureNames []string
	// Apps are the target column names (application names), in order.
	Apps []string
	// X holds one feature vector per row.
	X [][]float64
	// Y holds one target slice per app, parallel to X.
	Y map[string][]float64
	// AuxNames are the auxiliary observation column names (see aux.go);
	// empty for schema-v1 datasets.
	AuxNames []string
	// Aux holds one column per aux name, parallel to X. Rows appended via
	// Append (no aux values) pad these columns with zeros.
	Aux map[string][]float64
}

// New builds an empty dataset with the given feature and target columns.
func New(featureNames, apps []string) *Dataset {
	d := &Dataset{
		FeatureNames: append([]string(nil), featureNames...),
		Apps:         append([]string(nil), apps...),
		Y:            make(map[string][]float64, len(apps)),
	}
	for _, a := range apps {
		d.Y[a] = nil
	}
	return d
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the input dimensionality.
func (d *Dataset) NumFeatures() int { return len(d.FeatureNames) }

// Append adds one row. The feature vector is copied; targets must cover
// every app column. On a dataset with aux columns the new row's aux values
// are zero — use AppendFull to supply them.
func (d *Dataset) Append(features []float64, targets map[string]float64) error {
	if err := d.appendRow(features, targets); err != nil {
		return err
	}
	for _, n := range d.AuxNames {
		d.Aux[n] = append(d.Aux[n], 0)
	}
	return nil
}

func (d *Dataset) appendRow(features []float64, targets map[string]float64) error {
	if len(features) != len(d.FeatureNames) {
		return fmt.Errorf("dataset: row has %d features, want %d", len(features), len(d.FeatureNames))
	}
	for _, a := range d.Apps {
		if _, ok := targets[a]; !ok {
			return fmt.Errorf("dataset: row missing target %q", a)
		}
	}
	d.X = append(d.X, append([]float64(nil), features...))
	for _, a := range d.Apps {
		d.Y[a] = append(d.Y[a], targets[a])
	}
	return nil
}

// Target returns the target column for app.
func (d *Dataset) Target(app string) ([]float64, error) {
	y, ok := d.Y[app]
	if !ok {
		return nil, fmt.Errorf("dataset: no target %q", app)
	}
	return y, nil
}

// FeatureIndex returns the index of the named feature, or -1.
func (d *Dataset) FeatureIndex(name string) int {
	for i, n := range d.FeatureNames {
		if n == name {
			return i
		}
	}
	return -1
}

// clone copies the dataset structure with the given row indices.
func (d *Dataset) clone(rows []int) *Dataset {
	out := NewWithAux(d.FeatureNames, d.Apps, d.AuxNames)
	for _, r := range rows {
		out.X = append(out.X, d.X[r])
		for _, a := range d.Apps {
			out.Y[a] = append(out.Y[a], d.Y[a][r])
		}
		for _, n := range d.AuxNames {
			out.Aux[n] = append(out.Aux[n], d.Aux[n][r])
		}
	}
	return out
}

// Split partitions the rows into a training set holding trainFrac of the
// data and a test set holding the remainder, shuffled deterministically by
// seed — the paper's randomised 80/20 split with trainFrac = 0.8.
func (d *Dataset) Split(seed int64, trainFrac float64) (train, test *Dataset) {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(float64(len(idx)) * trainFrac)
	if cut < 0 {
		cut = 0
	}
	if cut > len(idx) {
		cut = len(idx)
	}
	return d.clone(idx[:cut]), d.clone(idx[cut:])
}

// FilterEqual returns the rows whose feature col equals value — the paper's
// Fig. 4/5 constraint of vector length to 128 or 2048.
func (d *Dataset) FilterEqual(col int, value float64) *Dataset {
	var rows []int
	for r, row := range d.X {
		if row[col] == value {
			rows = append(rows, r)
		}
	}
	return d.clone(rows)
}

// WriteCSV writes the dataset with a header row: features, then targets,
// then any aux columns (schema v2). A dataset without aux columns writes
// exactly the original v1 layout.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string(nil), d.FeatureNames...)
	for _, a := range d.Apps {
		header = append(header, targetPrefix+a)
	}
	header = append(header, d.AuxNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for r := range d.X {
		for i, v := range d.X[r] {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		for j, a := range d.Apps {
			rec[len(d.FeatureNames)+j] = strconv.FormatFloat(d.Y[a][r], 'g', -1, 64)
		}
		for j, n := range d.AuxNames {
			rec[len(d.FeatureNames)+len(d.Apps)+j] = strconv.FormatFloat(d.Aux[n][r], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset written by WriteCSV, either schema: v1
// (features + targets) or v2 (features + targets + aux columns).
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	var features, apps, auxNames []string
	for _, h := range header {
		switch {
		case strings.HasPrefix(h, auxPrefix):
			if len(apps) == 0 {
				return nil, fmt.Errorf("dataset: aux column %q before target columns", h)
			}
			auxNames = append(auxNames, h)
		case strings.HasPrefix(h, targetPrefix):
			if len(auxNames) > 0 {
				return nil, fmt.Errorf("dataset: target column %q after aux columns", h)
			}
			apps = append(apps, strings.TrimPrefix(h, targetPrefix))
		default:
			if len(apps) > 0 {
				return nil, fmt.Errorf("dataset: feature column %q after target columns", h)
			}
			features = append(features, h)
		}
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("dataset: no target columns in header")
	}
	d := NewWithAux(features, apps, auxNames)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), len(header))
		}
		row := make([]float64, len(features))
		for i := range features {
			row[i], err = strconv.ParseFloat(rec[i], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d col %d: %w", line, i, err)
			}
		}
		d.X = append(d.X, row)
		for j, a := range apps {
			v, err := strconv.ParseFloat(rec[len(features)+j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d target %s: %w", line, a, err)
			}
			d.Y[a] = append(d.Y[a], v)
		}
		for j, n := range auxNames {
			v, err := strconv.ParseFloat(rec[len(features)+len(apps)+j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d aux %s: %w", line, n, err)
			}
			d.Aux[n] = append(d.Aux[n], v)
		}
	}
	return d, nil
}

// SaveFile writes the dataset to path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
