// Package metrics provides the statistics and rendering helpers the
// evaluation harness uses: speedups, geometric means, and the ASCII
// table/bar-chart output of the Figure-1 reproduction.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Speedup returns baseline/measured (higher is better), matching the
// paper's "speedup over LAS" axis. Returns NaN when measured is zero.
func Speedup(baseline, measured float64) float64 {
	if measured == 0 {
		return math.NaN()
	}
	return baseline / measured
}

// GeoMean returns the geometric mean of positive values; zero-length input
// or any non-positive value yields NaN (a geomean over speedups must never
// silently absorb an invalid run).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table is a simple named-rows/named-columns float table with text
// rendering, used for the Figure-1 speedup matrix.
type Table struct {
	Title   string
	Columns []string
	rows    []string
	cells   map[string]map[string]float64
}

// NewTable creates a table with the given column order.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns, cells: map[string]map[string]float64{}}
}

// Set stores a cell, creating the row on first use (row order = insertion
// order).
func (t *Table) Set(row, col string, v float64) {
	if t.cells[row] == nil {
		t.cells[row] = map[string]float64{}
		t.rows = append(t.rows, row)
	}
	t.cells[row][col] = v
}

// Get returns a cell value (NaN if absent).
func (t *Table) Get(row, col string) float64 {
	if m, ok := t.cells[row]; ok {
		if v, ok := m[col]; ok {
			return v
		}
	}
	return math.NaN()
}

// Rows returns the row names in insertion order. No production code path
// reads it, but it is facade API: numadag.Table aliases Table, and a user
// reading a result table by row needs it.
func (t *Table) Rows() []string { return append([]string(nil), t.rows...) }

// ColumnValues returns the column's values in row order, skipping absent
// cells.
func (t *Table) ColumnValues(col string) []float64 {
	var out []float64
	for _, r := range t.rows {
		if v, ok := t.cells[r][col]; ok {
			out = append(out, v)
		}
	}
	return out
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	rowW := len("row")
	for _, r := range t.rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	fmt.Fprintf(&b, "%-*s", rowW+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", rowW+2, r)
		for _, c := range t.Columns {
			v := t.Get(r, c)
			if math.IsNaN(v) {
				fmt.Fprintf(&b, "%10s", "-")
			} else {
				fmt.Fprintf(&b, "%10.3f", v)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteBars renders one horizontal ASCII bar chart per row, scaled so that
// value 1.0 sits at a fixed reference column — visually equivalent to
// Figure 1's speedup bars with the LAS baseline at 1.0.
func (t *Table) WriteBars(w io.Writer, width int) error {
	if width <= 0 {
		width = 40
	}
	maxV := 1.0
	for _, r := range t.rows {
		for _, c := range t.Columns {
			if v := t.Get(r, c); !math.IsNaN(v) && v > maxV {
				maxV = v
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	ref := int(float64(width) / maxV) // column of the 1.0 line
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%s\n", r)
		for _, c := range t.Columns {
			v := t.Get(r, c)
			if math.IsNaN(v) {
				continue
			}
			n := int(v / maxV * float64(width))
			if n < 1 {
				n = 1
			}
			bar := strings.Repeat("#", n)
			marker := ""
			if ref > n {
				marker = strings.Repeat(" ", ref-n) + "|"
			}
			fmt.Fprintf(&b, "  %-10s %6.3f %s%s\n", c, v, bar, marker)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as RFC-4180 CSV with a leading "row" column —
// the machine-readable counterpart of Write for plotting pipelines.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"row"}, t.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.rows {
		rec := make([]string, 0, len(t.Columns)+1)
		rec = append(rec, r)
		for _, c := range t.Columns {
			v := t.Get(r, c)
			if math.IsNaN(v) {
				rec = append(rec, "")
			} else {
				rec = append(rec, strconv.FormatFloat(v, 'f', 6, 64))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
