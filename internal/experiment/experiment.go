// Package experiment provides the harness shared by every reproduction
// experiment: named data series with confidence intervals, aligned text
// tables, CSV emission, and a terminal ASCII line chart that stands in for
// the paper's figures (Go has no entrenched plotting stack; the CSV output
// feeds any external plotter while the ASCII chart makes runs self-contained).
package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Point is one measurement: Y at X, with an optional [Lo, Hi] confidence
// band (set Lo = Hi = Y when no band applies).
type Point struct {
	X, Y   float64
	Lo, Hi float64
}

// Series is a named curve.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point without a confidence band.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Lo: y, Hi: y})
}

// AddCI appends a point with a confidence band.
func (s *Series) AddCI(x, y, lo, hi float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Lo: lo, Hi: hi})
}

// Table is a simple aligned text table with CSV export.
type Table struct {
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(columns ...string) *Table {
	return &Table{Columns: append([]string(nil), columns...)}
}

// AddRow appends a row; missing cells render empty, extras are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, append([]string(nil), cells...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
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
	line := func(cells []string) error {
		var b strings.Builder
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i, width := range widths {
		sep[i] = strings.Repeat("-", width)
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("experiment: csv header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiment: csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiment: csv flush: %w", err)
	}
	return nil
}

// WriteSeriesCSV writes long-format CSV (series, x, y, lo, hi) for external
// plotting.
func WriteSeriesCSV(w io.Writer, series []Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "x", "y", "lo", "hi"}); err != nil {
		return fmt.Errorf("experiment: series csv header: %w", err)
	}
	for _, s := range series {
		for _, p := range s.Points {
			rec := []string{
				s.Name,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64),
				strconv.FormatFloat(p.Lo, 'g', -1, 64),
				strconv.FormatFloat(p.Hi, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("experiment: series csv row: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiment: series csv flush: %w", err)
	}
	return nil
}

// ChartOptions configures RenderChart.
type ChartOptions struct {
	// Title is printed above the plot.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// Width and Height are the plot area dimensions in characters;
	// non-positive values use 72×20.
	Width, Height int
	// YMin/YMax fix the y range; leave both zero for auto-scaling.
	YMin, YMax float64
}

// seriesMarkers are assigned to series in order.
var seriesMarkers = []byte{'o', 'x', '+', '*', '#', '@', '%', '&'}

// RenderChart draws a multi-series ASCII line chart. Series points are
// plotted as markers at their nearest cell; the legend maps markers to
// series names.
func RenderChart(w io.Writer, series []Series, opts ChartOptions) error {
	width, height := opts.Width, opts.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 20
	}
	var xmin, xmax, ymin, ymax float64
	first := true
	for _, s := range series {
		for _, p := range s.Points {
			if first {
				xmin, xmax, ymin, ymax = p.X, p.X, p.Y, p.Y
				first = false
				continue
			}
			xmin = math.Min(xmin, p.X)
			xmax = math.Max(xmax, p.X)
			ymin = math.Min(ymin, p.Y)
			ymax = math.Max(ymax, p.Y)
		}
	}
	if first {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	if opts.YMin != 0 || opts.YMax != 0 {
		ymin, ymax = opts.YMin, opts.YMax
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, marker byte) {
		col := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
		row := int(math.Round((y - ymin) / (ymax - ymin) * float64(height-1)))
		if col < 0 || col >= width || row < 0 || row >= height {
			return
		}
		grid[height-1-row][col] = marker
	}
	for si, s := range series {
		marker := seriesMarkers[si%len(seriesMarkers)]
		for _, p := range s.Points {
			plot(p.X, p.Y, marker)
		}
	}

	if opts.Title != "" {
		if _, err := fmt.Fprintln(w, opts.Title); err != nil {
			return err
		}
	}
	if opts.YLabel != "" {
		if _, err := fmt.Fprintf(w, "%s\n", opts.YLabel); err != nil {
			return err
		}
	}
	for i, rowBytes := range grid {
		yVal := ymax - (ymax-ymin)*float64(i)/float64(height-1)
		if _, err := fmt.Fprintf(w, "%8.3f |%s\n", yVal, string(rowBytes)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%8s +%s\n", "", strings.Repeat("-", width)); err != nil {
		return err
	}
	xAxis := fmt.Sprintf("%-*.4g%*.4g", width/2, xmin, width-width/2, xmax)
	if _, err := fmt.Fprintf(w, "%8s  %s\n", "", xAxis); err != nil {
		return err
	}
	if opts.XLabel != "" {
		if _, err := fmt.Fprintf(w, "%8s  %s\n", "", center(opts.XLabel, width)); err != nil {
			return err
		}
	}
	for si, s := range series {
		marker := seriesMarkers[si%len(seriesMarkers)]
		if _, err := fmt.Fprintf(w, "  %c  %s\n", marker, s.Name); err != nil {
			return err
		}
	}
	return nil
}

func center(s string, width int) string {
	if len(s) >= width {
		return s
	}
	pad := (width - len(s)) / 2
	return strings.Repeat(" ", pad) + s
}
