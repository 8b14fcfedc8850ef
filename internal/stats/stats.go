// Package stats formats experiment metrics into the tables and series
// the paper reports: committed event rates, GVT CPU times, instruction
// (cycle) counts, and rollback statistics.
package stats

import (
	"fmt"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; it panics if the arity differs from the headers.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("stats: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.rows = append(t.rows, cells)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Rate formats an event rate in engineering units (K/M events/s).
func Rate(eventsPerSecond float64) string {
	switch {
	case eventsPerSecond >= 1e9:
		return fmt.Sprintf("%.2fB ev/s", eventsPerSecond/1e9)
	case eventsPerSecond >= 1e6:
		return fmt.Sprintf("%.2fM ev/s", eventsPerSecond/1e6)
	case eventsPerSecond >= 1e3:
		return fmt.Sprintf("%.2fK ev/s", eventsPerSecond/1e3)
	default:
		return fmt.Sprintf("%.1f ev/s", eventsPerSecond)
	}
}

// Count formats a count in engineering units.
func Count(n uint64) string {
	switch {
	case n >= 1e12:
		return fmt.Sprintf("%.2fT", float64(n)/1e12)
	case n >= 1e9:
		return fmt.Sprintf("%.2fB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Seconds formats a duration in seconds with sensible precision.
func Seconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fus", s*1e6)
	}
}

// Speedup formats a ratio as the paper quotes improvements ("+17%",
// "-4.3%", "15.0x").
func Speedup(new, base float64) string {
	if base == 0 {
		return "n/a"
	}
	r := new / base
	if r >= 2 {
		return fmt.Sprintf("%.1fx", r)
	}
	return fmt.Sprintf("%+.1f%%", (r-1)*100)
}
