// Package report renders experiment results as aligned ASCII tables, the
// textual equivalent of the paper's matplotlib figures.
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F formats a float with prec decimals.
func F(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// I formats an integer-valued float.
func I(v float64) string {
	return strconv.FormatFloat(v, 'f', 0, 64)
}

// Bytes renders a byte count with a binary unit suffix.
func Bytes(v float64) string {
	switch {
	case v >= 1<<20 && math.Mod(v, 1<<20) == 0:
		return fmt.Sprintf("%gMiB", v/(1<<20))
	case v >= 1<<10 && math.Mod(v, 1<<10) == 0:
		return fmt.Sprintf("%gKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%gB", v)
	}
}
