package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Sample aggregates repeated measurements (the paper averages 576 runs;
// we default to far fewer, see Options.Repeats).
type Sample struct {
	values []float64
}

// Add appends one measurement.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// AddDuration appends a duration in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest measurement.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Table is a rendered experiment result.
type Table struct {
	// Title identifies the experiment ("Figure 4: ...").
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells.
	Rows [][]string
	// Notes are free-form lines printed under the table.
	Notes []string
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render pretty-prints the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
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
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Seconds formats a mean±stddev pair in seconds.
func Seconds(s *Sample) string {
	return fmt.Sprintf("%.3fs ±%.3f", s.Mean(), s.Stddev())
}

// formatDur formats a mean±stddev pair in milliseconds below a second and
// in seconds above.
func formatDur(s *Sample) string {
	if s.Mean() < time.Second.Seconds() {
		return fmt.Sprintf("%.1fms ±%.1f", s.Mean()*1000, s.Stddev()*1000)
	}
	return Seconds(s)
}

// fmtBytes formats a byte count with a binary unit.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

// startTimer returns a function reporting the elapsed time since the call.
func startTimer() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// Pct formats the relative difference of b versus a ("+17.5%" means b is
// 17.5% slower than a).
func Pct(a, b float64) string {
	if a == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (b-a)/a*100)
}
