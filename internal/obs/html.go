package obs

import (
	"fmt"
	"html"
	"io"
	"strings"
	"time"

	"repro/internal/metrics"
)

// WriteHTML renders the timeline as a self-contained static dashboard:
// no scripts, no external assets, inline SVG sparklines, one chart per
// series, an SLO panel and flight-recorder table per plane. Rendering is
// a pure function of the timeline, so the bytes are identical across
// re-runs of the same seed.
//
// Visual conventions follow the repo's chart rules: a single blue series
// per chart (the caption names it, so no legend), text in ink tokens
// rather than series colors, recessive hairline grid, and alert markers
// in the reserved status red paired with a textual SLO panel — color
// never carries the alert meaning alone. Light and dark palettes are both
// defined; the viewer's color scheme picks one.
func (tl *Timeline) WriteHTML(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s telemetry (seed %d)</title>\n", html.EscapeString(tl.Experiment), tl.Seed)
	b.WriteString("<style>\n" + dashCSS + "</style>\n</head>\n<body class=\"viz-root\">\n")
	fmt.Fprintf(&b, "<h1>%s &middot; virtual-time telemetry</h1>\n", html.EscapeString(tl.Experiment))
	fmt.Fprintf(&b, "<p class=\"sub\">seed %d &middot; sampling interval %s &middot; deterministic render</p>\n",
		tl.Seed, time.Duration(tl.IntervalNS))
	for i := range tl.Planes {
		writePlane(&b, &tl.Planes[i])
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writePlane(b *strings.Builder, pt *PlaneTimeline) {
	fmt.Fprintf(b, "<section class=\"plane\">\n<h2>%s</h2>\n", html.EscapeString(pt.Label))
	writeSLOPanel(b, pt)
	if len(pt.Series) > 0 {
		b.WriteString("<div class=\"charts\">\n")
		for i := range pt.Series {
			writeChart(b, pt, &pt.Series[i])
		}
		b.WriteString("</div>\n")
	}
	writeFlight(b, pt)
	b.WriteString("</section>\n")
}

func writeSLOPanel(b *strings.Builder, pt *PlaneTimeline) {
	if len(pt.Objectives) == 0 {
		return
	}
	b.WriteString("<table class=\"slo\">\n<thead><tr><th>objective</th><th>target</th><th>status</th><th>first fire</th></tr></thead>\n<tbody>\n")
	for _, o := range pt.Objectives {
		status := "<span class=\"ok\">&#10003; ok</span>"
		first := "&mdash;"
		if o.Fires > 0 {
			status = fmt.Sprintf("<span class=\"fired\">&#10007; fired &times;%d</span>", o.Fires)
			first = html.EscapeString(fmtNS(o.FirstFire))
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"target\">%s</td><td>%s</td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(o.Name), html.EscapeString(o.Target), status, first)
	}
	b.WriteString("</tbody>\n</table>\n")
}

// Chart geometry: a fixed 320x84 viewBox with an inset plot area.
const (
	chartW   = 320
	chartH   = 84
	plotX0   = 8
	plotX1   = 312
	plotY0   = 10
	plotY1   = 66
	axisWid  = plotX1 - plotX0
	axisHgt  = plotY1 - plotY0
	labelY   = 80 // x-axis label row
	chartCap = `<figcaption>%s <span class="stat">%s</span></figcaption>` + "\n"
)

func writeChart(b *strings.Builder, pt *PlaneTimeline, s *SeriesData) {
	b.WriteString("<figure class=\"chart\">\n")
	fmt.Fprintf(b, chartCap, html.EscapeString(s.Metric), html.EscapeString(s.Stat))
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\">\n", chartW, chartH, chartW, chartH)

	tMax := pt.EndNS
	if tMax <= 0 {
		tMax = 1
	}
	vMax := 0.0
	last := 0.0
	for _, p := range s.Points {
		if p.V > vMax {
			vMax = p.V
		}
		last = p.V
	}
	if vMax == 0 {
		vMax = 1
	}
	x := func(t int64) float64 { return plotX0 + float64(t)/float64(tMax)*axisWid }
	y := func(v float64) float64 { return plotY1 - v/vMax*axisHgt }

	// Recessive chrome: a top hairline gridline at the max and the baseline.
	fmt.Fprintf(b, "<line class=\"grid\" x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\"/>\n", plotX0, plotY0, plotX1, plotY0)
	fmt.Fprintf(b, "<line class=\"baseline\" x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\"/>\n", plotX0, plotY1, plotX1, plotY1)

	// Alert fire markers: status-red verticals behind the series line.
	for _, a := range pt.Alerts {
		if a.Kind != "fire" {
			continue
		}
		fmt.Fprintf(b, "<line class=\"alert\" x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\"><title>%s fired at %s</title></line>\n",
			x(a.T), plotY0, x(a.T), plotY1, html.EscapeString(a.Objective), html.EscapeString(fmtNS(a.T)))
	}

	if len(s.Points) == 1 {
		fmt.Fprintf(b, "<circle class=\"pt\" cx=\"%.1f\" cy=\"%.1f\" r=\"2\"/>\n", x(s.Points[0].T), y(s.Points[0].V))
	} else if len(s.Points) > 1 {
		b.WriteString("<polyline class=\"line\" points=\"")
		for i, p := range s.Points {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "%.1f,%.1f", x(p.T), y(p.V))
		}
		b.WriteString("\"/>\n")
	}

	fmt.Fprintf(b, "<title>%s %s: max %s, last %s</title>\n",
		html.EscapeString(s.Metric), html.EscapeString(s.Stat),
		html.EscapeString(fmtVal(vMax, s.Unit)), html.EscapeString(fmtVal(last, s.Unit)))
	fmt.Fprintf(b, "<text class=\"lbl\" x=\"%d\" y=\"%d\">%s</text>\n", plotX0, plotY0-2, html.EscapeString(fmtVal(vMax, s.Unit)))
	fmt.Fprintf(b, "<text class=\"lbl\" x=\"%d\" y=\"%d\">0</text>\n", plotX0, labelY)
	fmt.Fprintf(b, "<text class=\"lbl end\" x=\"%d\" y=\"%d\">%s</text>\n", plotX1, labelY, html.EscapeString(fmtNS(tMax)))
	b.WriteString("</svg>\n")
	fmt.Fprintf(b, "<div class=\"val\">last %s</div>\n", html.EscapeString(fmtVal(last, s.Unit)))
	b.WriteString("</figure>\n")
}

func writeFlight(b *strings.Builder, pt *PlaneTimeline) {
	if len(pt.Flight) == 0 {
		return
	}
	fmt.Fprintf(b, "<details class=\"flight\"><summary>flight recorder &middot; %d event(s)</summary>\n", len(pt.Flight))
	b.WriteString("<table>\n<thead><tr><th>t</th><th>kind</th><th>event</th><th>detail</th></tr></thead>\n<tbody>\n")
	for _, ev := range pt.Flight {
		fmt.Fprintf(b, "<tr><td class=\"num\">%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(fmtNS(ev.T)), html.EscapeString(ev.Kind),
			html.EscapeString(ev.Name), html.EscapeString(ev.Detail))
	}
	b.WriteString("</tbody>\n</table>\n</details>\n")
}

// fmtNS renders a virtual timestamp compactly.
func fmtNS(ns int64) string { return metrics.FmtDuration(time.Duration(ns)) }

// fmtVal renders a sample in its series unit.
func fmtVal(v float64, unit string) string {
	switch unit {
	case "ns":
		return metrics.FmtDuration(time.Duration(v))
	case "/s":
		return fmt.Sprintf("%.0f/s", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// dashCSS holds the palette (light and dark steps of the same ramps) and
// the chart chrome. Series color is categorical slot 1; alert markers use
// the reserved status-critical step; all text wears ink tokens.
const dashCSS = `:root { color-scheme: light dark; }
body.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --critical: #d03b3b; --good: #006300;
  margin: 24px; background: var(--page); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
@media (prefers-color-scheme: dark) {
  body.viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --good: #0ca30c;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 24px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 16px; }
.plane { margin-bottom: 8px; }
table { border-collapse: collapse; background: var(--surface-1); border: 1px solid var(--border); border-radius: 6px; }
th, td { padding: 4px 10px; text-align: left; font-size: 13px; border-top: 1px solid var(--grid); }
thead th { color: var(--text-secondary); font-weight: 500; border-top: none; }
td.num { font-variant-numeric: tabular-nums; }
td.target { color: var(--text-secondary); }
.ok { color: var(--good); }
.fired { color: var(--critical); font-weight: 600; }
.charts { display: flex; flex-wrap: wrap; gap: 12px; margin-top: 12px; }
.chart { margin: 0; padding: 8px 8px 4px; background: var(--surface-1); border: 1px solid var(--border); border-radius: 6px; }
.chart figcaption { font-size: 12px; color: var(--text-primary); margin-bottom: 2px; }
.chart .stat { color: var(--text-secondary); }
.chart .val { font-size: 11px; color: var(--text-secondary); text-align: right; }
svg .line { fill: none; stroke: var(--series-1); stroke-width: 2; stroke-linejoin: round; }
svg .pt { fill: var(--series-1); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .baseline { stroke: var(--baseline); stroke-width: 1; }
svg .alert { stroke: var(--critical); stroke-width: 1.5; }
svg .lbl { fill: var(--muted); font-size: 9px; }
svg .lbl.end { text-anchor: end; }
.flight { margin-top: 12px; }
.flight summary { cursor: pointer; color: var(--text-secondary); font-size: 13px; }
.flight table { margin-top: 8px; }
`
