package viz

import (
	"fmt"
	"math"
	"strings"
)

// Markers assigned to series in order.
var markers = []rune{'o', 'x', '*', '+', '#', '@'}

// Series is one named line of y values (parallel to the chart's X).
type Series struct {
	Name string
	Y    []float64
}

// Chart is a 2-D scatter chart over a shared x axis.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	// Width and Height are the plot-area size in characters; zero
	// selects 64×16.
	Width, Height int
	// LogX spaces the x axis logarithmically — natural for the paper's
	// 256…8192 task counts.
	LogX bool
}

// Render draws the chart. It returns an error message string when the
// input is malformed (callers print it either way; charts are best-effort
// diagnostics, not data).
func (c *Chart) Render() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 16
	}
	if len(c.X) == 0 || len(c.Series) == 0 {
		return "(empty chart)\n"
	}
	for _, s := range c.Series {
		if len(s.Y) != len(c.X) {
			return fmt.Sprintf("(chart %q: series %q has %d points for %d x values)\n",
				c.Title, s.Name, len(s.Y), len(c.X))
		}
	}

	xpos := make([]float64, len(c.X))
	copy(xpos, c.X)
	if c.LogX {
		for i, v := range xpos {
			if v <= 0 {
				return fmt.Sprintf("(chart %q: LogX with non-positive x %v)\n", c.Title, v)
			}
			xpos[i] = math.Log(v)
		}
	}
	xmin, xmax := minMax(xpos)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		lo, hi := minMax(s.Y)
		ymin = math.Min(ymin, lo)
		ymax = math.Max(ymax, hi)
	}
	// Degenerate-span guard: only bitwise-equal extremes need widening.
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// A little headroom so extremes are not on the border.
	pad := (ymax - ymin) * 0.05
	ymin -= pad
	ymax += pad

	grid := make([][]rune, h)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", w))
	}
	plot := func(x, y float64, m rune) {
		col := int(math.Round((x - xmin) / (xmax - xmin) * float64(w-1)))
		row := int(math.Round((ymax - y) / (ymax - ymin) * float64(h-1)))
		if col >= 0 && col < w && row >= 0 && row < h {
			grid[row][col] = m
		}
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i, y := range s.Y {
			plot(xpos[i], y, m)
		}
	}

	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title)
		sb.WriteString("\n")
	}
	yTickW := 10
	for r := 0; r < h; r++ {
		// Y tick on first, middle and last rows.
		label := strings.Repeat(" ", yTickW)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", yTickW, trimNum(ymax))
		case h / 2:
			label = fmt.Sprintf("%*s", yTickW, trimNum((ymin+ymax)/2))
		case h - 1:
			label = fmt.Sprintf("%*s", yTickW, trimNum(ymin))
		}
		sb.WriteString(label)
		sb.WriteString(" |")
		sb.WriteString(string(grid[r]))
		sb.WriteString("\n")
	}
	sb.WriteString(strings.Repeat(" ", yTickW))
	sb.WriteString(" +")
	sb.WriteString(strings.Repeat("-", w))
	sb.WriteString("\n")
	// X ticks: first, middle, last of the ORIGINAL x values.
	lo := trimNum(c.X[0])
	mid := trimNum(c.X[len(c.X)/2])
	hi := trimNum(c.X[len(c.X)-1])
	axis := make([]rune, w)
	for i := range axis {
		axis[i] = ' '
	}
	placeLabel(axis, 0, lo)
	placeLabel(axis, (w-len(mid))/2, mid)
	placeLabel(axis, w-len(hi), hi)
	sb.WriteString(strings.Repeat(" ", yTickW+2))
	sb.WriteString(string(axis))
	sb.WriteString("\n")
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&sb, "%s x: %s   y: %s\n", strings.Repeat(" ", yTickW), c.XLabel, c.YLabel)
	}
	// Legend.
	sb.WriteString(strings.Repeat(" ", yTickW))
	sb.WriteString(" legend:")
	for si, s := range c.Series {
		fmt.Fprintf(&sb, "  %c=%s", markers[si%len(markers)], s.Name)
	}
	sb.WriteString("\n")
	return sb.String()
}

func placeLabel(axis []rune, at int, label string) {
	if at < 0 {
		at = 0
	}
	for i, ch := range label {
		if at+i < len(axis) {
			axis[at+i] = ch
		}
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// trimNum formats a number compactly for axis labels.
func trimNum(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 10000:
		return fmt.Sprintf("%.3g", v)
	case a >= 10:
		return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", v), "0"), ".")
	case a >= 0.01 || a == 0:
		return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	default:
		return fmt.Sprintf("%.2g", v)
	}
}
