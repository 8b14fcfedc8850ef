// Command ggtop is a live terminal dashboard for a ggserved instance.
// It polls GET /metrics (OpenMetrics text) and, when following a job,
// GET /v2/jobs/{id}/series, and redraws a one-screen view: service
// counters, per-thread GVT lag bars, and sparklines of the job's
// horizon width, roughness, rollback rate, and GVT advance rate.
//
//	ggtop -addr 127.0.0.1:8347            # service-level view
//	ggtop -addr 127.0.0.1:8347 -job job-00000001
//	ggtop -once                           # print one frame and exit
//
// ggtop is also the exposition's consumer-side validator: it parses
// /metrics with a strict OpenMetrics reader and exits non-zero on any
// malformed line, undeclared family, or incomplete histogram — which
// is how scripts/obs_smoke.sh checks the wire format end to end.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ggpdes/internal/serve/client"
	"ggpdes/internal/stats"
	"ggpdes/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8347", "ggserved address (host:port or URL)")
		jobID    = flag.String("job", "", "job to follow (empty = service-level view only)")
		interval = flag.Duration("interval", 2*time.Second, "poll and redraw interval")
		once     = flag.Bool("once", false, "render a single frame without clearing the screen, then exit")
		width    = flag.Int("width", 60, "sparkline width in columns")
	)
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	ctx := context.Background()
	hc := &http.Client{Timeout: 10 * time.Second}

	if *once {
		frame, err := render(ctx, hc, base, *jobID, *width)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(frame)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		frame, err := render(ctx, hc, base, *jobID, *width)
		if err != nil {
			fatalf("%v", err)
		}
		// Home the cursor and clear to end of screen: redrawing in place
		// avoids the flicker of a full clear.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

// render fetches one round of data and returns the full frame.
func render(ctx context.Context, hc *http.Client, base, jobID string, width int) (string, error) {
	exp, err := fetchMetrics(hc, base+"/metrics")
	if err != nil {
		return "", fmt.Errorf("metrics: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ggtop — %s — %s\n\n", base, time.Now().Format("15:04:05"))
	renderService(&b, exp)
	if jobID != "" {
		job, pts, total, err := client.New(base, hc).Series(ctx, jobID)
		if err != nil {
			return "", fmt.Errorf("series %s: %w", jobID, err)
		}
		b.WriteByte('\n')
		renderJob(&b, job, pts, total, width)
	}
	return b.String(), nil
}

// renderService prints the serving-plane counters plus merged engine
// totals from the exposition.
func renderService(b *strings.Builder, exp *exposition) {
	get := func(name string) float64 { return exp.samples["ggpdes_"+name] }
	fmt.Fprintf(b, "jobs    submitted %-8.0f completed %-8.0f failed %-6.0f in-flight %.0f\n",
		get("serve_jobs_submitted_total"), get("serve_jobs_completed_total"),
		get("serve_jobs_failed_total"), get("serve_jobs_in_flight"))
	fmt.Fprintf(b, "cache   hits %-8.0f misses %-8.0f entries %.0f\n",
		get("serve_cache_hits_total"), get("serve_cache_misses_total"),
		get("serve_cache_entries"))
	committed := get("tw_committed_events_total")
	rollbacks := get("tw_rollbacks_total")
	if committed > 0 || rollbacks > 0 {
		fmt.Fprintf(b, "engine  committed %s  rollbacks %s  anti-messages %s  (all completed jobs)\n",
			stats.Count(uint64(committed)), stats.Count(uint64(rollbacks)),
			stats.Count(uint64(get("tw_anti_messages_total"))))
	}
	// The cluster.* counters are registered only on clustered replicas
	// (cluster.New), so their presence — again, not value — keys the
	// fleet line. Resumes are failovers that found the dead owner's
	// keyed checkpoint.
	if _, ok := exp.samples["ggpdes_cluster_fills_total"]; ok {
		fmt.Fprintf(b, "fleet   peers up %-7.0f sims %-8.0f dedup(inflight) %-6.0f resumes %.0f\n",
			get("cluster_peers_connected"), get("serve_simulations_total"),
			get("serve_dedup_inflight_total"), get("serve_resumes_total"))
		fmt.Fprintf(b, "        fills %-8.0f served %-8.0f delegated %-6.0f remote %-6.0f failovers %-4.0f spills %.0f\n",
			get("cluster_fills_total"), get("cluster_fills_served_total"),
			get("cluster_delegated_total"), get("cluster_remote_jobs_total"),
			get("cluster_failovers_total"), get("cluster_spills_total"))
	}
}

// renderJob prints the followed job's time-resolved view.
func renderJob(b *strings.Builder, job client.JobMeta, pts []telemetry.SeriesPoint, total, width int) {
	fmt.Fprintf(b, "job %s  state=%s  rounds=%d", job.ID, job.State, total)
	if len(pts) == 0 {
		b.WriteString("  (no series points yet)\n")
		return
	}
	last := pts[len(pts)-1]
	fmt.Fprintf(b, "  gvt=%.4g  advance=%.3g vt/s  active=%d  queue=%d\n",
		last.GVT, last.AdvanceRate, last.ActiveThreads, last.QueueDepth)
	fmt.Fprintf(b, "events  committed %s  rolled back %s  rollbacks %s  commit ratio %.1f%%  pool hit %.1f%%\n",
		stats.Count(last.Committed), stats.Count(last.RolledBack),
		stats.Count(last.Rollbacks), last.CommitRatio*100, last.PoolHitRate*100)

	widthS := make([]float64, len(pts))
	roughS := make([]float64, len(pts))
	rateS := make([]float64, len(pts))
	rollS := make([]float64, len(pts))
	prevRoll := 0.0
	for i, pt := range pts {
		widthS[i] = pt.HorizonWidth
		roughS[i] = pt.HorizonRoughness
		rateS[i] = pt.AdvanceRate
		rollS[i] = float64(pt.Rollbacks) - prevRoll
		prevRoll = float64(pt.Rollbacks)
	}
	fmt.Fprintf(b, "\nhorizon width  w   [%9.3g] %s\n", last.HorizonWidth, stats.Sparkline(widthS, width))
	fmt.Fprintf(b, "roughness      w^2 [%9.3g] %s\n", last.HorizonRoughness, stats.Sparkline(roughS, width))
	fmt.Fprintf(b, "gvt advance rate   [%9.3g] %s\n", last.AdvanceRate, stats.Sparkline(rateS, width))
	fmt.Fprintf(b, "rollbacks / round  [%9.0f] %s\n", rollS[len(rollS)-1], stats.Sparkline(rollS, width))

	// Per-thread GVT lag: how far each thread's LVT runs ahead of the
	// committed horizon. Wide spread = a rough horizon.
	b.WriteString("\nper-thread GVT lag (lvt - gvt)\n")
	span := last.MaxLVT - last.GVT
	for tid, lvt := range last.ThreadLVTs {
		lag := lvt - last.GVT
		n := 0
		if span > 0 {
			n = int(lag / span * 30)
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(b, "  t%-3d %10.4g |%s\n", tid, lag, strings.Repeat("#", n))
	}
}

// exposition is a parsed OpenMetrics scrape.
type exposition struct {
	samples map[string]float64 // bare name (no labels) -> value
	types   map[string]string  // family -> counter|gauge|histogram
}

func fetchMetrics(hc *http.Client, url string) (*exposition, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseOpenMetrics(string(body))
}

// parseOpenMetrics is a strict reader for the subset of the Prometheus
// text format the repo emits. It rejects malformed sample lines,
// samples whose family lacks a TYPE declaration, and histograms
// missing _bucket/_sum/_count series, so a scrape doubles as a wire-
// format check.
func parseOpenMetrics(text string) (*exposition, error) {
	exp := &exposition{samples: map[string]float64{}, types: map[string]string{}}
	seen := map[string]map[string]bool{} // family -> suffixes seen
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[1] == "TYPE" {
				switch f[3] {
				case "counter", "gauge", "histogram":
					exp.types[f[2]] = f[3]
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", ln+1, f[3])
				}
			}
			continue
		}
		name, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		family, suffix := familyOf(name, exp.types)
		if family == "" {
			return nil, fmt.Errorf("line %d: sample %q has no TYPE declaration", ln+1, name)
		}
		if seen[family] == nil {
			seen[family] = map[string]bool{}
		}
		seen[family][suffix] = true
		if suffix == "" || suffix == "_total" {
			exp.samples[family+suffix] = value
		}
	}
	// Every declared family must have samples, and histograms the full
	// _bucket/_sum/_count triple.
	families := make([]string, 0, len(exp.types))
	for f := range exp.types {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		suf := seen[f]
		switch exp.types[f] {
		case "counter":
			if !suf["_total"] {
				return nil, fmt.Errorf("counter %s declared but no %s_total sample", f, f)
			}
		case "gauge":
			if !suf[""] {
				return nil, fmt.Errorf("gauge %s declared but no sample", f)
			}
		case "histogram":
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				if !suf[s] {
					return nil, fmt.Errorf("histogram %s missing %s%s series", f, f, s)
				}
			}
		}
	}
	return exp, nil
}

// parseSample splits one sample line into its metric name (labels
// stripped) and value.
func parseSample(line string) (name string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", 0, fmt.Errorf("unterminated label set in %q", line)
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		f := strings.Fields(rest)
		if len(f) != 2 {
			return "", 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = f[0], f[1]
	}
	if !validMetricName(name) {
		return "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return name, v, nil
}

// familyOf maps a sample name to its declared family by stripping the
// conventional suffixes.
func familyOf(name string, types map[string]string) (family, suffix string) {
	if _, ok := types[name]; ok {
		return name, ""
	}
	for _, s := range []string{"_total", "_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, s); ok {
			if _, declared := types[f]; declared {
				return f, s
			}
		}
	}
	return "", ""
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ggtop: "+format+"\n", args...)
	os.Exit(1)
}
