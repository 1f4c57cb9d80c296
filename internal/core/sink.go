package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"numadag/internal/metrics"
)

// Norm selects how a TableSink turns per-cell mean makespans into table
// values.
type Norm int

const (
	// NormRaw reports the mean makespan itself (simulated ns).
	NormRaw Norm = iota
	// NormSpeedup reports baseline/mean — "speedup over the baseline",
	// higher is better (the Figure-1 axis).
	NormSpeedup
	// NormRatio reports mean/baseline — lower is better (the partitioner
	// ablation's "normalized to full" axis).
	NormRatio
	// NormBest reports mean divided by the row's minimum mean (the window
	// sweep's "normalized to best" axis). No baseline is involved.
	NormBest
)

// TableOptions declares the aggregation a TableSink performs.
type TableOptions struct {
	// Title becomes the rendered table's title.
	Title string
	// Row and Col map a cell to its table coordinates. Defaults: Row is
	// the app name, Col the policy spec. Replicates of the same (row, col)
	// are averaged (arithmetic mean of makespans).
	Row func(Cell) string
	Col func(Cell) string
	// Columns fixes the column order; nil means first-seen order.
	// Baseline-only columns (see Baseline) never appear either way.
	Columns []string
	// Norm selects the value transformation.
	Norm Norm
	// Baseline marks cells that feed the per-row reference instead of a
	// column of their own (e.g. the LAS runs of Figure 1). The reference
	// for a measured column is the baseline mean aggregated under the same
	// column name if one exists, otherwise the row's single baseline value.
	Baseline func(Cell) bool
	// BaselineColumn names an ordinary (kept) column as the reference —
	// the partitioner sweep's "full" column, which then reads 1.0.
	BaselineColumn string
	// Geomean appends a "geomean" row (geometric mean per column).
	Geomean bool
}

// TableSink aggregates streaming cell results into a metrics.Table:
// arithmetic-mean makespans per (row, column), then the configured
// normalization (speedup over a baseline, ratio to a reference column,
// ratio to the row's best) and an optional geometric-mean row.
type TableSink struct {
	opt  TableOptions
	rows []string
	cols []string
	seen map[[2]string]bool
	sum  map[[2]string]float64
	n    map[[2]string]int
	bsum map[[2]string]float64
	bn   map[[2]string]int
	tb   *metrics.Table
}

// NewTableSink creates a table aggregator.
func NewTableSink(opt TableOptions) *TableSink {
	if opt.Row == nil {
		opt.Row = func(c Cell) string { return c.App }
	}
	if opt.Col == nil {
		opt.Col = func(c Cell) string { return c.Policy }
	}
	return &TableSink{
		opt:  opt,
		seen: make(map[[2]string]bool),
		sum:  make(map[[2]string]float64),
		n:    make(map[[2]string]int),
		bsum: make(map[[2]string]float64),
		bn:   make(map[[2]string]int),
	}
}

// Emit implements Sink.
func (t *TableSink) Emit(res CellResult) error {
	row, col := t.opt.Row(res.Cell), t.opt.Col(res.Cell)
	if !t.seen[[2]string{row, ""}] {
		t.seen[[2]string{row, ""}] = true
		t.rows = append(t.rows, row)
	}
	v := float64(res.Stats.Makespan)
	if t.opt.Baseline != nil && t.opt.Baseline(res.Cell) {
		t.bsum[[2]string{row, col}] += v
		t.bn[[2]string{row, col}]++
		return nil
	}
	if t.opt.Columns == nil && !t.seen[[2]string{"", col}] {
		t.seen[[2]string{"", col}] = true
		t.cols = append(t.cols, col)
	}
	t.sum[[2]string{row, col}] += v
	t.n[[2]string{row, col}]++
	return nil
}

// Close implements Sink: it builds the table.
func (t *TableSink) Close() error {
	cols := t.opt.Columns
	if cols == nil {
		cols = t.cols
	}
	// A fixed column list must cover every measured cell: silently dropping
	// a mis-mapped column would make a truncated table look complete.
	if t.opt.Columns != nil {
		known := make(map[string]bool, len(cols))
		for _, c := range cols {
			known[c] = true
		}
		for k, n := range t.n {
			if n > 0 && !known[k[1]] {
				return fmt.Errorf("core: table %q: measured cells map to column %q, not in Columns %v",
					t.opt.Title, k[1], cols)
			}
		}
	}
	tb := metrics.NewTable(t.opt.Title, cols...)
	for _, row := range t.rows {
		best := math.Inf(1)
		if t.opt.Norm == NormBest {
			for _, col := range cols {
				if n := t.n[[2]string{row, col}]; n > 0 {
					if m := t.sum[[2]string{row, col}] / float64(n); m < best {
						best = m
					}
				}
			}
		}
		for _, col := range cols {
			n := t.n[[2]string{row, col}]
			if n == 0 {
				continue
			}
			mean := t.sum[[2]string{row, col}] / float64(n)
			var v float64
			switch t.opt.Norm {
			case NormRaw:
				v = mean
			case NormSpeedup, NormRatio:
				ref, err := t.reference(row, col)
				if err != nil {
					return err
				}
				if t.opt.Norm == NormSpeedup {
					v = metrics.Speedup(ref, mean)
				} else {
					v = mean / ref
				}
			case NormBest:
				v = mean / best
			default:
				return fmt.Errorf("core: unknown Norm %d", t.opt.Norm)
			}
			tb.Set(row, col, v)
		}
	}
	if t.opt.Geomean {
		for _, col := range cols {
			tb.Set("geomean", col, metrics.GeoMean(tb.ColumnValues(col)))
		}
	}
	t.tb = tb
	return nil
}

// reference resolves the baseline mean for one measured (row, col) cell.
func (t *TableSink) reference(row, col string) (float64, error) {
	if t.opt.Baseline != nil {
		if n := t.bn[[2]string{row, col}]; n > 0 {
			return t.bsum[[2]string{row, col}] / float64(n), nil
		}
		// Fall back to the row's single baseline column, if unambiguous.
		var ref float64
		found := 0
		for k, n := range t.bn {
			if k[0] == row && n > 0 {
				ref = t.bsum[k] / float64(n)
				found++
			}
		}
		switch found {
		case 1:
			return ref, nil
		case 0:
			return 0, fmt.Errorf("core: table %q: row %q has no baseline cells", t.opt.Title, row)
		default:
			return 0, fmt.Errorf("core: table %q: row %q has %d baseline columns, none named %q",
				t.opt.Title, row, found, col)
		}
	}
	if t.opt.BaselineColumn != "" {
		if n := t.n[[2]string{row, t.opt.BaselineColumn}]; n > 0 {
			return t.sum[[2]string{row, t.opt.BaselineColumn}] / float64(n), nil
		}
		return 0, fmt.Errorf("core: table %q: row %q missing baseline column %q",
			t.opt.Title, row, t.opt.BaselineColumn)
	}
	return 0, fmt.Errorf("core: table %q: Norm needs Baseline or BaselineColumn", t.opt.Title)
}

// Table returns the aggregated table; valid after Close.
func (t *TableSink) Table() *metrics.Table { return t.tb }

// cellRecord is the flat, machine-readable form of one cell result shared
// by the JSONL and CSV sinks.
type cellRecord struct {
	Index         int     `json:"index"`
	App           string  `json:"app"`
	Policy        string  `json:"policy"`
	Machine       string  `json:"machine"`
	Variant       string  `json:"variant,omitempty"`
	Replicate     int     `json:"replicate"`
	Seed          uint64  `json:"seed"`
	MakespanNs    int64   `json:"makespan_ns"`
	Tasks         int     `json:"tasks"`
	LocalBytes    int64   `json:"local_bytes"`
	RemoteBytes   int64   `json:"remote_bytes"`
	RemoteRatio   float64 `json:"remote_ratio"`
	CutBytes      int64   `json:"cut_bytes"`
	LoadImbalance float64 `json:"load_imbalance"`
	Steals        int     `json:"steals"`
	Deferred      int     `json:"deferred"`
}

func newCellRecord(res CellResult) cellRecord {
	return cellRecord{
		Index:         res.Cell.Index,
		App:           res.Cell.App,
		Policy:        res.Cell.Policy,
		Machine:       res.Cell.Machine,
		Variant:       res.Cell.Variant,
		Replicate:     res.Cell.Replicate,
		Seed:          res.Cell.Seed,
		MakespanNs:    int64(res.Stats.Makespan),
		Tasks:         res.Stats.TasksRun,
		LocalBytes:    res.Stats.LocalBytes,
		RemoteBytes:   res.Stats.RemoteBytes,
		RemoteRatio:   res.Stats.RemoteRatio(),
		CutBytes:      res.Stats.CutBytes,
		LoadImbalance: res.Stats.LoadImbalance,
		Steals:        res.Stats.Steals,
		Deferred:      res.Stats.Deferred,
	}
}

// JSONLSink streams one JSON object per cell result — the machine-readable
// trajectory of a sweep, consumable while the experiment is still running.
//
// Every record is pushed through to the underlying writer as it lands: when
// w buffers (it implements Flush() error, like a bufio.Writer), Emit
// flushes after each line, so a crash mid-sweep loses at most the record
// being written — never a buffered tail.
type JSONLSink struct {
	enc   *json.Encoder
	flush func() error
}

// NewJSONLSink creates a JSON-lines sink over w. Buffered writers are
// flushed per record (see the type comment).
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{enc: json.NewEncoder(w)}
	if f, ok := w.(interface{ Flush() error }); ok {
		s.flush = f.Flush
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(res CellResult) error {
	if err := s.enc.Encode(newCellRecord(res)); err != nil {
		return err
	}
	if s.flush != nil {
		return s.flush()
	}
	return nil
}

// Close implements Sink.
func (s *JSONLSink) Close() error {
	if s.flush != nil {
		return s.flush()
	}
	return nil
}

// csvHeader is the CSVSink column order (matches cellRecord field order).
var csvHeader = []string{
	"index", "app", "policy", "machine", "variant", "replicate", "seed",
	"makespan_ns", "tasks", "local_bytes", "remote_bytes", "remote_ratio",
	"cut_bytes", "load_imbalance", "steals", "deferred",
}

// CSVSink streams one CSV row per cell result, writing the header first.
type CSVSink struct {
	w      *csv.Writer
	wroteH bool
}

// NewCSVSink creates a CSV sink over w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: csv.NewWriter(w)} }

// Emit implements Sink.
func (s *CSVSink) Emit(res CellResult) error {
	if !s.wroteH {
		s.wroteH = true
		if err := s.w.Write(csvHeader); err != nil {
			return err
		}
	}
	r := newCellRecord(res)
	rec := []string{
		strconv.Itoa(r.Index), r.App, r.Policy, r.Machine, r.Variant,
		strconv.Itoa(r.Replicate), strconv.FormatUint(r.Seed, 10),
		strconv.FormatInt(r.MakespanNs, 10), strconv.Itoa(r.Tasks),
		strconv.FormatInt(r.LocalBytes, 10), strconv.FormatInt(r.RemoteBytes, 10),
		strconv.FormatFloat(r.RemoteRatio, 'f', 6, 64),
		strconv.FormatInt(r.CutBytes, 10),
		strconv.FormatFloat(r.LoadImbalance, 'f', 6, 64),
		strconv.Itoa(r.Steals), strconv.Itoa(r.Deferred),
	}
	if err := s.w.Write(rec); err != nil {
		return err
	}
	s.w.Flush() // streaming: each row is visible as soon as it lands
	return s.w.Error()
}

// Close implements Sink.
func (s *CSVSink) Close() error {
	s.w.Flush()
	return s.w.Error()
}

// SinkFunc adapts a function to the Sink interface (Close is a no-op).
type SinkFunc func(CellResult) error

// Emit implements Sink.
func (f SinkFunc) Emit(res CellResult) error { return f(res) }

// Close implements Sink.
func (SinkFunc) Close() error { return nil }
