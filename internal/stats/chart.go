package stats

import (
	"fmt"
	"strings"
)

// BarChart renders grouped horizontal bars, one group per x value and
// one bar per series — the textual analogue of the paper's committed
// event rate figures. Values are scaled to the global maximum.
type BarChart struct {
	Title string
	// Unit labels the values (e.g. "ev/s").
	Unit string
	// Width is the maximum bar length in columns (0 = 40).
	Width int

	groups []chartGroup
	series []string
}

type chartGroup struct {
	label string
	vals  map[string]float64
}

// NewBarChart creates an empty chart.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit}
}

// Add records one value for a (group, series) cell, e.g. (threads=64,
// "GG-PDES-Async") -> 5.6e6. Groups and series render in insertion
// order.
func (c *BarChart) Add(group, series string, value float64) {
	for _, s := range c.series {
		if s == series {
			goto haveSeries
		}
	}
	c.series = append(c.series, series)
haveSeries:
	for i := range c.groups {
		if c.groups[i].label == group {
			c.groups[i].vals[series] = value
			return
		}
	}
	c.groups = append(c.groups, chartGroup{label: group, vals: map[string]float64{series: value}})
}

// String renders the chart.
func (c *BarChart) String() string {
	width := c.Width
	if width <= 0 {
		width = 40
	}
	max := 0.0
	for _, g := range c.groups {
		for _, v := range g.vals {
			if v > max {
				max = v
			}
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	if max <= 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	labelW := 0
	for _, s := range c.series {
		if len(s) > labelW {
			labelW = len(s)
		}
	}
	for _, g := range c.groups {
		fmt.Fprintf(&b, "%s:\n", g.label)
		for _, s := range c.series {
			v, ok := g.vals[s]
			if !ok {
				continue
			}
			n := int(v / max * float64(width))
			if n < 1 && v > 0 {
				n = 1
			}
			fmt.Fprintf(&b, "  %-*s |%s %s\n", labelW, s, strings.Repeat("#", n), Rate(v))
		}
	}
	return b.String()
}
