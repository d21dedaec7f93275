package experiment

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.AddCI(3, 4, 3.5, 4.5)
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].Lo != 2 || s.Points[0].Hi != 2 {
		t.Errorf("Add should set degenerate CI: %+v", s.Points[0])
	}
	if s.Points[1].Lo != 3.5 || s.Points[1].Hi != 4.5 {
		t.Errorf("AddCI stored wrong band: %+v", s.Points[1])
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("K", "probability")
	tb.AddRow("28", "0.000")
	tb.AddRow("88", "1")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "K ") || !strings.Contains(lines[0], "probability") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "-") {
		t.Errorf("separator = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "28") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestTableRenderMissingCells(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("1")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1") {
		t.Error("row with missing cells vanished")
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("K", "P[conn]")
	tb.AddRow("28", "0.0")
	tb.AddRow("88", "1 | extra") // pipe must be escaped
	var sb strings.Builder
	if err := tb.renderMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "| K | P[conn] |\n| --- | --- |\n| 28 | 0.0 |\n| 88 | 1 \\| extra |\n"
	if out != want {
		t.Errorf("markdown = %q, want %q", out, want)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "y")
	tb.AddRow("1", "a,b") // embedded comma must be quoted
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,\"a,b\"\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	s := Series{Name: "q=2"}
	s.AddCI(28, 0.5, 0.4, 0.6)
	var sb strings.Builder
	if err := WriteSeriesCSV(&sb, []Series{s}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "series,x,y,lo,hi\n") {
		t.Errorf("header missing: %q", out)
	}
	if !strings.Contains(out, "q=2,28,0.5,0.4,0.6") {
		t.Errorf("row missing: %q", out)
	}
}

func TestRenderChartBasics(t *testing.T) {
	var s1, s2 Series
	s1.Name = "rising"
	s2.Name = "falling"
	for i := 0; i <= 10; i++ {
		s1.Add(float64(i), float64(i)/10)
		s2.Add(float64(i), 1-float64(i)/10)
	}
	var sb strings.Builder
	err := RenderChart(&sb, []Series{s1, s2}, ChartOptions{
		Title:  "test chart",
		XLabel: "x",
		YLabel: "P",
		Width:  40,
		Height: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"test chart", "rising", "falling", "o", "x", "+---", "P"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The rising series' first point (0,0) must be bottom-left, the top row
	// must contain a marker for y=1.
	lines := strings.Split(out, "\n")
	var plotLines []string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plotLines = append(plotLines, l)
		}
	}
	if len(plotLines) != 10 {
		t.Fatalf("plot rows = %d, want 10:\n%s", len(plotLines), out)
	}
	top, bottom := plotLines[0], plotLines[len(plotLines)-1]
	if !strings.ContainsAny(top[strings.Index(top, "|"):], "ox") {
		t.Errorf("top row empty: %q", top)
	}
	if !strings.ContainsAny(bottom[strings.Index(bottom, "|"):], "ox") {
		t.Errorf("bottom row empty: %q", bottom)
	}
}

func TestRenderChartEmpty(t *testing.T) {
	var sb strings.Builder
	if err := RenderChart(&sb, nil, ChartOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty chart output = %q", sb.String())
	}
}

func TestRenderChartFixedYRange(t *testing.T) {
	var s Series
	s.Name = "flat"
	s.Add(0, 0.5)
	s.Add(1, 0.5)
	var sb strings.Builder
	err := RenderChart(&sb, []Series{s}, ChartOptions{YMin: 0, YMax: 1, Width: 20, Height: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "0.000") {
		t.Errorf("fixed y range labels missing:\n%s", out)
	}
}

func TestRenderChartSinglePoint(t *testing.T) {
	var s Series
	s.Name = "dot"
	s.Add(5, 5)
	var sb strings.Builder
	if err := RenderChart(&sb, []Series{s}, ChartOptions{Width: 10, Height: 4}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "o") {
		t.Error("single point not plotted")
	}
}

// renderMarkdown writes the table as a GitHub-flavoured Markdown table.
func (t *Table) renderMarkdown(w io.Writer) error {
	row := func(cells []string) error {
		var b strings.Builder
		b.WriteString("|")
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(cell, "|", "\\|"))
			b.WriteString(" |")
		}
		_, err := fmt.Fprintln(w, b.String())
		return err
	}
	if err := row(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	if err := row(sep); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}
