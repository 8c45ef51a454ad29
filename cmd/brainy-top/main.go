// Command brainy-top is the terminal companion to brainy-serve's windowed
// profiling: it polls the service's /debug/brainy?format=json dashboard and
// renders a top-style live view of every instance timeline — operation-mix
// glyphs, current vs. initial advice, drift flags, and per-instance ops
// trend sparklines — refreshing in place. Below the table it draws a
// self-observation pane from /v1/health and /v1/timeseries: the SLO
// burn-rate verdict (with the reason for any objective that is not ok) and
// sparkline trends for advise p99, profile and window throughput, and
// shard queue depth. Last comes a pane of the slowest recent advise
// requests, one per latency bucket, read from /metrics?format=json.
//
// Usage:
//
//	brainy-top -addr http://localhost:8377 [-interval 2s] [-once]
//
// With -once it fetches a single dashboard, prints it without clearing the
// terminal, and exits — the scriptable/test mode. Exit status is non-zero
// when the service is unreachable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tsdb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("brainy-top: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "http://localhost:8377", "base URL of the brainy-serve instance to watch")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		once     = flag.Bool("once", false, "fetch one dashboard, print it, and exit")
	)
	flag.Parse()
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive, got %s", *interval)
	}
	base := strings.TrimSuffix(*addr, "/")
	url := base + "/debug/brainy?format=json"
	client := &http.Client{Timeout: 10 * time.Second}

	if *once {
		d, err := fetchDashboard(client, url)
		if err != nil {
			return err
		}
		fmt.Print(render(d, *addr))
		fmt.Print(renderTrends(fetchTrends(client, base)))
		fmt.Print(renderExemplars(fetchExemplars(client, base)))
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	// Poll immediately, then on the ticker; a fetch error is drawn into the
	// view rather than killing the watch — the service may just be
	// restarting.
	for {
		frame, err := func() (string, error) {
			d, ferr := fetchDashboard(client, url)
			if ferr != nil {
				return "", ferr
			}
			return render(d, *addr) + renderTrends(fetchTrends(client, base)) +
				renderExemplars(fetchExemplars(client, base)), nil
		}()
		// \x1b[H\x1b[2J homes the cursor and clears: redraw in place like
		// top rather than scrolling history away.
		fmt.Print("\x1b[H\x1b[2J")
		if err != nil {
			fmt.Printf("brainy-top: %v (retrying every %s)\n", err, *interval)
		} else {
			fmt.Print(frame)
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-ticker.C:
		}
	}
}

// fetchDashboard pulls and decodes one JSON dashboard.
func fetchDashboard(client *http.Client, url string) (*serve.DashboardResponse, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var d serve.DashboardResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("decoding dashboard: %w", err)
	}
	return &d, nil
}

// fetchExemplars reads the request-latency histogram's bucket exemplars
// from the service's /metrics?format=json samples. Best-effort: a failed
// read renders as no pane, not an error — the dashboard is the primary view.
func fetchExemplars(client *http.Client, base string) []telemetry.BucketExemplar {
	resp, err := client.Get(base + "/metrics?format=json")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	samples, err := telemetry.DecodeSamples(resp.Body)
	if err != nil {
		return nil
	}
	for _, s := range samples {
		if s.Name == "brainy_request_duration_seconds" && s.Hist != nil {
			return s.Hist.Exemplars()
		}
	}
	return nil
}

// renderExemplars draws the slow-request pane: one line per latency bucket
// that has a stamped exemplar, slowest first, each naming the request ID
// brainy-explain resolves back to a journaled decision.
func renderExemplars(exs []telemetry.BucketExemplar) string {
	if len(exs) == 0 {
		return ""
	}
	sort.Slice(exs, func(i, j int) bool { return exs[i].Value > exs[j].Value })
	var b strings.Builder
	b.WriteString("\nrecent advise requests by latency bucket (brainy-explain -id <REQUEST> traces one):\n")
	fmt.Fprintf(&b, "%-8s %12s  %s\n", "LE", "LATENCY", "REQUEST")
	for _, ex := range exs {
		fmt.Fprintf(&b, "%-8s %10.2fms  %s\n", ex.LE, ex.Value*1000, ex.RequestID)
	}
	return b.String()
}

// render draws one frame: brainy-top's title and counter lines over the
// dashboard's instance table. The JSON dashboard arrives key-sorted (the
// locked schema order); re-sort on the touch stamp so the most recently
// active timelines sit at the top, where a live view wants them.
func render(d *serve.DashboardResponse, addr string) string {
	sort.SliceStable(d.Rows, func(i, j int) bool { return d.Rows[i].Touch > d.Rows[j].Touch })
	return fmt.Sprintf("brainy-top — %s\n", addr) +
		fmt.Sprintf("instances %d/%d  windows %d  drift-events %d  out-of-order %d\n\n",
			d.Instances, d.MaxInstances, d.Windows, d.DriftEvents, d.OutOfOrder) +
		serve.DashboardTable(d.Rows)
}

// trendSeries names the self-observed series the trends pane sparklines,
// paired with a display label and a formatter for the latest value.
var trendSeries = []struct {
	series string
	label  string
	fmtV   func(v float64) string
}{
	{"brainy_advise_duration_seconds:p99", "advise p99", func(v float64) string { return fmt.Sprintf("%.2fms", v*1000) }},
	{"brainy_profiles_analyzed_total:rate", "profiles/s", func(v float64) string { return fmt.Sprintf("%.1f", v) }},
	{"brainy_profile_windows_total:rate", "windows/s", func(v float64) string { return fmt.Sprintf("%.1f", v) }},
	{"brainy_shard_queue_depth", "queue depth", func(v float64) string { return fmt.Sprintf("%.0f", v) }},
}

// trends is the data behind the self-observation pane: the /v1/health verdict
// plus the sparkline history of a few headline series from /v1/timeseries.
type trends struct {
	health *serve.HealthResponse
	points map[string][]tsdb.Point
}

// fetchTrends pulls the health verdict and trend series. Best-effort like
// fetchExemplars: a nil return (server predates the endpoints, sampler
// disabled, transient error) renders as no pane rather than an error.
func fetchTrends(client *http.Client, base string) *trends {
	t := &trends{}
	if resp, err := client.Get(base + "/v1/health"); err == nil {
		// /v1/health answers 503 with the same JSON body when critical or
		// draining — that verdict is exactly what the pane is for.
		var h serve.HealthResponse
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable {
			if json.NewDecoder(resp.Body).Decode(&h) == nil {
				t.health = &h
			}
		}
		resp.Body.Close()
	}
	q := ""
	for _, s := range trendSeries {
		q += "&series=" + s.series
	}
	if resp, err := client.Get(base + "/v1/timeseries?" + q[1:]); err == nil {
		var ts serve.TimeseriesResponse
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ts) == nil && ts.Enabled {
			t.points = ts.Points
		}
		resp.Body.Close()
	}
	if t.health == nil && len(t.points) == 0 {
		return nil
	}
	return t
}

// renderTrends draws the self-observation pane: one health verdict line (with
// the burn-rate reason for every objective that is not ok) and one sparkline
// row per headline series.
func renderTrends(t *trends) string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	if h := t.health; h != nil {
		fmt.Fprintf(&b, "\nhealth: %s", h.Status)
		if !h.Enabled {
			b.WriteString("  (self-observation disabled: restart with -sample-interval > 0)")
		}
		for _, obj := range h.SLO.Objectives {
			if obj.State != "ok" {
				fmt.Fprintf(&b, "\n  %-28s %-9s %s", obj.Name, obj.State, obj.Reason)
			}
		}
		b.WriteString("\n")
	}
	for _, s := range trendSeries {
		pts := t.points[s.series]
		if len(pts) == 0 {
			continue
		}
		// One rune per sample: keep the tail so the pane stays terminal-width
		// even when the store retains hundreds of points.
		const width = 60
		if len(pts) > width {
			pts = pts[len(pts)-width:]
		}
		fmt.Fprintf(&b, "%-14s %-60s  last %s\n",
			s.label, tsdb.SparkPoints(pts), s.fmtV(pts[len(pts)-1].V))
	}
	return b.String()
}
