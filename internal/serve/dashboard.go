package serve

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"

	"repro/internal/opstats"
	"repro/internal/profile"
)

// debugBrainyPath is where the live status page mounts.
const debugBrainyPath = "/debug/brainy"

// DashboardWindow is one timeline cell in the JSON dashboard: where the
// window sits on the instance's op axis and what its operation mix was.
type DashboardWindow struct {
	Seq     int     `json:"seq"`
	StartOp uint64  `json:"start_op"`
	EndOp   uint64  `json:"end_op"`
	Len     int     `json:"len"`
	Find    float64 `json:"find"`
	Append  float64 `json:"append"`
	Scan    float64 `json:"scan"`
	Erase   float64 `json:"erase"`
}

// DashboardRow is one instance in the JSON dashboard.
type DashboardRow struct {
	Key        string            `json:"key"`
	Context    string            `json:"context"`
	Instance   int               `json:"instance"`
	Kind       string            `json:"kind"`
	Windows    int               `json:"windows"`
	Ops        uint64            `json:"ops"`
	OutOfOrder int               `json:"out_of_order"`
	Touch      uint64            `json:"touch"` // global recency stamp of the last ingest
	Advised    bool              `json:"advised"`
	Initial    string            `json:"initial"` // first advised kind ("" until advised)
	Current    string            `json:"current"` // currently advised kind
	Confidence float64           `json:"confidence"`
	Drifted    bool              `json:"drifted"`
	Events     int               `json:"events"`
	Mix        string            `json:"mix"`   // one glyph per retained window
	Trend      string            `json:"trend"` // ops-per-window sparkline, oldest first
	Timeline   []DashboardWindow `json:"timeline"`
}

// DashboardResponse is the ?format=json dashboard body — what brainy-top
// polls. The JSON shape is a locked schema: rows are sorted by instance
// key (consumers wanting recency order sort on Touch), and SchemaVersion
// only moves on a breaking change. Version 2 added schema_version, touch,
// and the key-sorted row order.
type DashboardResponse struct {
	SchemaVersion int            `json:"schema_version"`
	Instances     int            `json:"instances"`
	MaxInstances  int            `json:"max_instances"`
	Windows       uint64         `json:"windows"`
	DriftEvents   uint64         `json:"drift_events"`
	DriftSkipped  uint64         `json:"drift_skipped"`
	OutOfOrder    uint64         `json:"out_of_order"`
	Rows          []DashboardRow `json:"rows"`
}

// handleDebugBrainy renders the windowed-profiling status page: one row per
// retained instance timeline (most recently active first) with its feature
// timeline, current vs. initial advice, drift flag, and confidence.
// ?format=text (the default) renders for terminals and golden tests,
// ?format=json feeds brainy-top, ?format=html renders for browsers.
func (s *Server) handleDebugBrainy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := s.dashboard()
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, renderDashboardText(resp))
	case "json":
		// The JSON schema orders rows by instance key: stable across
		// requests regardless of ingest interleaving, so goldens and diffs
		// of two scrapes compare meaningfully. Text keeps recency order —
		// a terminal wants active instances on top.
		sort.Slice(resp.Rows, func(i, j int) bool { return resp.Rows[i].Key < resp.Rows[j].Key })
		writeJSON(w, http.StatusOK, resp)
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := dashboardHTML.Execute(w, resp); err != nil {
			s.log.Warn("dashboard render", "error", err)
		}
	default:
		writeError(w, http.StatusBadRequest, "format must be text, json, or html")
	}
}

// dashboard assembles the response by merging every shard's timeline rows.
// Instance keys are unique across shards (each key lives on exactly one
// shard), and the per-ingest touch stamp restores the global
// most-recently-active order the single-store server rendered.
func (s *Server) dashboard() DashboardResponse {
	resp := DashboardResponse{
		SchemaVersion: 2,
		MaxInstances:  s.cfg.MaxInstances,
		Windows:       s.metrics.ProfileWindows.Value(),
		DriftEvents:   s.metrics.DriftEvents.Value(),
		DriftSkipped:  s.metrics.DriftSkipped.Value(),
		OutOfOrder:    s.metrics.WindowsOutOfOrder.Value(),
		Rows:          []DashboardRow{},
	}
	for _, sh := range s.shards {
		resp.Rows = append(resp.Rows, sh.timelines.rows()...)
	}
	sort.Slice(resp.Rows, func(i, j int) bool { return resp.Rows[i].Touch > resp.Rows[j].Touch })
	resp.Instances = len(resp.Rows)
	return resp
}

// dashboardWindow reduces one window to its dashboard cell; the timeline
// store keeps the cell, not the window.
func dashboardWindow(w *profile.WindowRecord) DashboardWindow {
	s := &w.Stats
	total := float64(s.TotalCalls())
	if total == 0 {
		total = 1
	}
	frac := func(ops ...opstats.Op) float64 {
		var n uint64
		for _, op := range ops {
			n += s.Count[op]
		}
		return float64(n) / total
	}
	return DashboardWindow{
		Seq:     w.Seq,
		StartOp: w.StartOp,
		EndOp:   w.EndOp,
		Len:     w.Len,
		Find:    frac(opstats.OpFind),
		Append:  frac(opstats.OpInsert, opstats.OpPushBack, opstats.OpPushFront),
		Scan:    frac(opstats.OpIterate),
		Erase:   frac(opstats.OpErase, opstats.OpPopBack, opstats.OpPopFront),
	}
}

// mixGlyph names a window by its dominant operation class: f(ind),
// a(ppend), s(can), e(rase), or '.' when nothing clears half the calls.
// A timeline like "aaaaffff" is a phase change you can read at a glance.
func mixGlyph(c DashboardWindow) byte {
	switch {
	case c.Find >= 0.5:
		return 'f'
	case c.Append >= 0.5:
		return 'a'
	case c.Scan >= 0.5:
		return 's'
	case c.Erase >= 0.5:
		return 'e'
	}
	return '.'
}

// renderDashboardText renders the page for terminals. The output contains
// no timestamps or addresses, so a fixed ingestion sequence renders
// byte-identically — the golden-test contract.
func renderDashboardText(d DashboardResponse) string {
	return "brainy windowed profiling\n" +
		fmt.Sprintf("instances %d/%d  windows %d  drift-events %d  drift-skipped %d  out-of-order %d\n\n",
			d.Instances, d.MaxInstances, d.Windows, d.DriftEvents, d.DriftSkipped, d.OutOfOrder) +
		DashboardTable(d.Rows)
}

// DashboardTable renders the instance table of the text dashboard, which
// brainy-top draws under its own title and counter lines: a column header,
// one line per row in the order given, and the glyph legends — or, with no
// rows, the one-line empty state.
func DashboardTable(rows []DashboardRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		b.WriteString("no instance timelines yet: POST snapshot windows to /v1/profiles\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-32s %-9s %6s %8s  %-22s %5s %6s  %-22s %s\n",
		"INSTANCE", "KIND", "WIN", "OPS", "ADVICE", "CONF", "DRIFT", "TIMELINE", "TREND")
	for _, row := range rows {
		advice := "-"
		conf := "    -"
		if row.Advised {
			advice = row.Initial
			if row.Current != row.Initial {
				advice = row.Initial + " -> " + row.Current
			}
			conf = fmt.Sprintf("%5.2f", row.Confidence)
		}
		driftCol := "."
		if row.Drifted {
			driftCol = fmt.Sprintf("DRIFT%d", row.Events)
		}
		fmt.Fprintf(&b, "%-32s %-9s %6d %8d  %-22s %s %6s  %-22s %s\n",
			row.Key, row.Kind, row.Windows, row.Ops, advice, conf, driftCol, row.Mix, row.Trend)
	}
	b.WriteString("\nmix glyphs: a=append f=find s=scan e=erase .=mixed (one per retained window, oldest first)\n")
	b.WriteString("trend: ops-per-window sparkline over the same retained windows\n")
	return b.String()
}

// dashboardHTML is the browser rendering of the same data.
var dashboardHTML = template.Must(template.New("dashboard").Parse(`<!doctype html>
<html><head><title>brainy windowed profiling</title><style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; }
th, td { border: 1px solid #999; padding: 4px 8px; text-align: left; }
.drift { color: #b00; font-weight: bold; }
.mix { letter-spacing: 2px; }
</style></head><body>
<h1>brainy windowed profiling</h1>
<p>instances {{.Instances}}/{{.MaxInstances}} &middot; windows {{.Windows}} &middot;
drift events {{.DriftEvents}} &middot; drift skipped {{.DriftSkipped}} &middot; out-of-order {{.OutOfOrder}}</p>
{{if .Rows}}<table>
<tr><th>instance</th><th>kind</th><th>windows</th><th>ops</th><th>advice</th><th>confidence</th><th>drift</th><th>timeline</th><th>trend</th></tr>
{{range .Rows}}<tr>
<td>{{.Key}}</td><td>{{.Kind}}</td><td>{{.Windows}}</td><td>{{.Ops}}</td>
<td>{{if .Advised}}{{.Initial}}{{if ne .Current .Initial}} &rarr; {{.Current}}{{end}}{{else}}-{{end}}</td>
<td>{{if .Advised}}{{printf "%.2f" .Confidence}}{{else}}-{{end}}</td>
<td>{{if .Drifted}}<span class="drift">DRIFT&times;{{.Events}}</span>{{else}}-{{end}}</td>
<td class="mix">{{.Mix}}</td>
<td class="mix">{{.Trend}}</td>
</tr>{{end}}
</table>{{else}}<p>no instance timelines yet: POST snapshot windows to /v1/profiles</p>{{end}}
<p>mix glyphs: a=append f=find s=scan e=erase .=mixed (one per retained window, oldest first)</p>
</body></html>
`))
