package tablewriter

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table accumulates rows of string cells under a fixed header.
type Table struct {
	header []string
	rows   [][]string
	title  string
}

// New returns a table with the given column headers.
func New(header ...string) *Table {
	return &Table{header: append([]string(nil), header...)}
}

// SetTitle sets an optional title line printed above the table.
func (t *Table) SetTitle(title string) { t.title = title }

// AddRow appends a row. Short rows are padded with empty cells; long rows
// are an error surfaced at render time via panic, because they indicate a
// programming mistake in the harness, not bad data.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		panic(fmt.Sprintf("tablewriter: row with %d cells exceeds %d columns", len(cells), len(t.header)))
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the table as aligned ASCII to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// RenderCSV writes the header and rows as RFC-4180 CSV to w. The title, if
// set, is emitted as a leading comment line ("# title") which all common
// CSV consumers tolerate or can be told to skip.
func (t *Table) RenderCSV(w io.Writer) error {
	if t.title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.title); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Ftoa formats a float64 compactly for table cells: fixed precision, with
// trailing zeros trimmed (but at least one decimal kept for non-integers).
func Ftoa(v float64, precision int) string {
	s := strconv.FormatFloat(v, 'f', precision, 64)
	if !strings.Contains(s, ".") {
		return s
	}
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	return s
}

// Itoa is shorthand for strconv.Itoa, re-exported so harness code only
// imports one formatting package.
func Itoa(v int) string { return strconv.Itoa(v) }
