package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/training"
)

const (
	advisePath   = "/v1/advise?arch=" + arch
	profilesPath = "/v1/profiles?arch=" + arch
	// setupLaunches is how many times a run starts the server to time its
	// set-up; the last launch serves the traffic.
	setupLaunches = 9
	// warmup is driven before the timed phase, so the cache and the
	// timeline store are full and connections are open when timing starts.
	warmup = 2 * time.Second
	// activePerConn ingest instances are interleaved on each connection.
	activePerConn = 8
	// batchSize is brainy-serve's default -batch; batch fill is measured
	// against it.
	batchSize = 32
)

// serverFlags are the brainy-serve flags both serving workloads add to
// -models and -addr: every default of a production launch (4096-entry
// cache, 32-wide batches lingering 500µs, one shard per GOMAXPROCS), with
// the per-request log off as for any load test.
var serverFlags = []string{"-log-requests=false"}

// connections is the closed-loop client count: two per CPU. With one per
// CPU the CPUs go idle between a response and the next request, and on a
// shared virtual machine every such wake-up waits on the host scheduler:
// run-to-run spread of throughput and p90 doubled in alternating runs.
func connections() int { return 2 * runtime.NumCPU() }

func loadRegistry(path string) (*training.ModelSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return training.LoadModelSet(f)
}

// traffic is one serving workload's request mix.
type traffic struct {
	advise []adviseTrace
	// pick returns connection c's advise trace chooser.
	pick func(c int) func() int
	// ingest, when set, alternates a /v1/profiles post with every advise.
	ingest *ingestPool
	// rssAfter is how many requests the server has answered when its peak
	// resident set is read: a fixed amount of work rather than the end of
	// the run, because the server keeps state for every instance it has
	// seen, and how many a run reaches depends on the host's speed.
	rssAfter int64
}

func runHotMixed(e env, rep *report) error {
	set, err := loadRegistry(e.models)
	if err != nil {
		return err
	}
	t0 := time.Now()
	pool := newIngestPool(e.seed)
	tr := traffic{
		advise:   hotAdviseTraces(e.seed),
		pick:     func(c int) func() int { return hotPicker(e.seed, c) },
		ingest:   &pool,
		rssAfter: 40000,
	}
	rep.Facts["inputs_s"] = time.Since(t0).Seconds()
	return runServing(e, rep, set, tr)
}

func runColdAdvise(e env, rep *report) error {
	set, err := loadRegistry(e.models)
	if err != nil {
		return err
	}
	t0 := time.Now()
	traces := coldAdviseTraces(e.seed)
	conns := connections()
	tr := traffic{
		advise:   traces,
		rssAfter: 10000,
		// The connections walk the pool in turn, so a trace recurs only
		// after every other trace of the pool has been sent.
		pick: func(c int) func() int {
			i := c - conns
			return func() int {
				i += conns
				return i % len(traces)
			}
		},
	}
	rep.Facts["inputs_s"] = time.Since(t0).Seconds()
	return runServing(e, rep, set, tr)
}

// runServing times the server's set-up, drives the workload's traffic
// through warm-up and the timed phase, checks every response, and in trace
// mode adds the per-layer metrics.
func runServing(e env, rep *report, set *training.ModelSet, tr traffic) error {
	brainy := core.New(set)
	rep.Facts["registry"] = set.Fingerprint()
	rep.Facts["connections"] = connections()
	rep.Facts["server_flags"] = serverFlags

	probe := tr.advise[0]
	probeWant := brainy.Analyze(probe.profiles, arch).Plan()
	// The host's speed is measured between launches.
	meter := newSpeedMeter()
	setupSpan, err := meter.begin()
	if err != nil {
		return err
	}
	var setups []float64
	var srv *server
	for i := 0; i < setupLaunches; i++ {
		if _, err := meter.measure(); err != nil {
			return err
		}
		rep.Attempted++
		s, d, err := launch(e, probe, probeWant)
		if err != nil {
			return err
		}
		if i < setupLaunches-1 {
			if err := s.stop(); err != nil {
				return err
			}
		} else {
			srv = s
			defer srv.stop()
		}
		setups = append(setups, d.Seconds())
	}
	if _, err := meter.measure(); err != nil {
		return err
	}
	setupSpeed, measured, setupStolen, err := meter.speedOver(setupSpan)
	if err != nil {
		return err
	}
	rep.set("host.setup_speed", setupSpeed, "ratio", measured)
	rep.set("host.setup_stolen", setupStolen, "ratio", measured)
	rep.set("setup_s", median(setups)*setupSpeed, "s", len(setups))
	rep.set("raw.setup_s", median(setups), "s", len(setups))

	scrape := newClient()
	defer scrape.CloseIdleConnections()
	warmEnd := time.Now().Add(warmup)
	end := warmEnd.Add(e.seconds)
	var before snapshot
	var beforeErr error
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		time.Sleep(time.Until(warmEnd))
		before, beforeErr = takeSnapshot(scrape, srv)
	}()
	g := &gate{}
	metered := make(chan error, 1)
	go func() { metered <- g.run(meter, end) }()
	var served atomic.Int64
	rssRead := make(chan rssReading, 1)
	go func() { rssRead <- watchRSS(srv.cmd.Process.Pid, &served, tr.rssAfter, end) }()
	logs := drive(srv.addr, tr, end, g, &served)
	if err := <-metered; err != nil {
		return err
	}
	rss := <-rssRead
	if rss.err != nil {
		return rss.err
	}
	rep.Facts["rss_after_requests"] = rss.served
	<-snapped
	if beforeErr != nil {
		return beforeErr
	}
	after, err := takeSnapshot(scrape, srv)
	if err != nil {
		return err
	}
	batchWait, batchRecords, err := batchWaitUs(scrape, srv.addr)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}

	// End-to-end metrics over the requests started in the timed phase's
	// quiet segments, at the host's speed over them.
	kept := g.quieter(warmEnd)
	var active time.Duration
	var speeds []float64
	stolen := 0.0 // share of CPU time the host took, over the kept segments
	for _, sg := range kept {
		active += sg.to.Sub(sg.from)
		stolen += sg.stolen * sg.to.Sub(sg.from).Seconds()
		speeds = append(speeds, sg.speed)
	}
	stolen /= active.Seconds()
	speed := hostSpeed(median(speeds), stolen)
	rep.set("host.speed", speed, "ratio", len(kept))
	rep.set("host.stolen", stolen, "ratio", len(kept))
	inKept := func(t time.Time) bool {
		for _, sg := range kept {
			if !t.Before(sg.from) && t.Before(sg.to) {
				return true
			}
		}
		return false
	}
	var adviseMs, ingestMs []float64
	timed := 0
	for _, l := range logs {
		for _, s := range l.samples {
			if s.start.Before(warmEnd) {
				continue
			}
			timed++
			if !inKept(s.start) {
				continue
			}
			ms := float64(s.lat) / float64(time.Millisecond)
			if s.kind == adviseReq {
				adviseMs = append(adviseMs, ms)
			} else {
				ingestMs = append(ingestMs, ms)
			}
		}
	}
	counted := len(adviseMs) + len(ingestMs)
	if counted == 0 {
		return fmt.Errorf("no request completed in the timed phase")
	}
	rawOps := float64(counted) / active.Seconds()
	rep.set("ops_s", rawOps/speed, "1/s", counted)
	rep.set("raw.ops_s", rawOps, "1/s", counted)
	setLatencies(rep, "raw.advise", adviseMs)
	scaleMs(adviseMs, speed)
	setLatencies(rep, "advise", adviseMs)
	rep.Metrics["p50_ms"] = rep.Metrics["advise_p50_ms"]
	rep.Metrics["p90_ms"] = rep.Metrics["advise_p90_ms"]
	if tr.ingest != nil {
		setLatencies(rep, "raw.ingest", ingestMs)
		scaleMs(ingestMs, speed)
		setLatencies(rep, "ingest", ingestMs)
	}
	rep.set("rss_mb", rss.mb, "MB", 1)

	// Per-layer rows read from outside the server during this same run.
	perReq := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(timed) }
	rep.set("serve.cpu_ms_per_req", perReq(after.serverCPU-before.serverCPU), "ms", timed)
	rep.set("loadgen.cpu_ms_per_req", perReq(after.selfCPU-before.selfCPU-meter.cpuFrom(warmEnd)), "ms", timed)
	d := after.delta(before)
	if n := d["brainy_cache_hits_total"] + d["brainy_cache_misses_total"]; n > 0 {
		rep.set("serve.cache_hit_ratio", d["brainy_cache_hits_total"]/n, "ratio", int(n))
	}
	rep.set("serve.inferences_per_req", d["brainy_inferences_total"]/float64(timed), "count", timed)
	if n := d["brainy_batch_size_count"]; n > 0 {
		m := d["brainy_batch_size_sum"] / n
		rep.set("serve.batch_size_mean", m, "count", int(n))
		rep.set("serve.batch_fill", m/batchSize, "ratio", int(n))
	}
	rep.set("serve.batch_wait_us", batchWait, "us", batchRecords)

	verifyAdvise(rep, brainy, tr.advise, logs)
	if tr.ingest != nil {
		verifyIngest(rep, brainy, *tr.ingest, logs)
	}
	if e.trace {
		return traceServing(e, rep, set, tr)
	}
	return nil
}

// scaleMs multiplies every latency by the host's speed: a latency measured
// on a host twice as fast as the machine of record reads twice as long.
func scaleMs(ms []float64, speed float64) {
	for i := range ms {
		ms[i] *= speed
	}
}

// setLatencies reports p50, p90 and p99 of one request type's latencies.
func setLatencies(rep *report, kind string, ms []float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		rep.set(kind+"_"+q.name+"_ms", quantile(ms, q.q), "ms", len(ms))
	}
}

// server is one running brainy-serve process.
type server struct {
	cmd    *exec.Cmd
	addr   string // host:port
	logs   *logTail
	exited chan error

	stopOnce sync.Once
	stopErr  error
}

// listenRE matches the server's "listening" log line.
var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// logTail is the server's output: it hands over the listen address once
// the server logs it, and keeps the last lines for error messages.
type logTail struct {
	mu    sync.Mutex
	part  []byte
	lines []string
	addr  chan string // nil once the address was handed over
}

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.part = append(l.part, p...)
	for {
		i := bytes.IndexByte(l.part, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(l.part[:i])
		l.part = l.part[i+1:]
		if l.addr != nil {
			if m := listenRE.FindStringSubmatch(line); m != nil {
				l.addr <- m[1] // buffered, read at most once
				l.addr = nil
			}
		}
		l.lines = append(l.lines, line)
		if len(l.lines) > 20 {
			l.lines = l.lines[1:]
		}
	}
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// startServer launches brainy-serve on an ephemeral port and returns once
// it is listening.
func startServer(e env) (*server, error) {
	addr := make(chan string, 1)
	logs := &logTail{addr: addr}
	args := append([]string{"-models", e.models, "-addr", "127.0.0.1:0"}, serverFlags...)
	cmd := exec.Command(filepath.Join(e.bin, "brainy-serve"), args...)
	cmd.SysProcAttr = childAttr()
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, logs: logs, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case a := <-addr:
		s.addr = a
		return s, nil
	case err := <-s.exited:
		return nil, fmt.Errorf("brainy-serve exited before listening (%v):\n%s", err, logs)
	case <-time.After(60 * time.Second):
		_ = s.stop()
		return nil, fmt.Errorf("brainy-serve did not listen within a minute:\n%s", logs)
	}
}

// stop sends SIGTERM, lets the server drain, and waits for it to exit;
// after 30 seconds it kills it. Later calls return the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		var err error
		select {
		case err = <-s.exited:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			err = <-s.exited
		}
		if err != nil {
			s.stopErr = fmt.Errorf("brainy-serve: %v:\n%s", err, s.logs)
		}
	})
	return s.stopErr
}

// launch starts a server and returns once its first advise came back
// correct, with the time from launch to then.
func launch(e env, probe adviseTrace, want []core.PlanEntry) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(e)
	if err != nil {
		return nil, 0, err
	}
	c := newConn(s.addr)
	defer c.close()
	status, body, err := c.post(advisePath, probe.body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first advise: status %d: %s", status, body)
	}
	if err == nil && !planMatches(body, want) {
		err = fmt.Errorf("first advise: plan differs from the in-process plan")
	}
	if err != nil {
		_ = s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, err
}

type reqKind uint8

const (
	adviseReq reqKind = iota
	ingestReq
)

// sample is one request as the client saw it.
type sample struct {
	kind   reqKind
	ref    int // advise: trace index; ingest: index into connLog.refs
	start  time.Time
	lat    time.Duration
	status int
	err    error
	hash   uint64
	// body is the response. An advise response is kept only when it is the
	// first for its trace on the connection or differs from that first
	// one, so every distinct response is checked once without holding all
	// of them.
	body []byte
}

// connLog is everything one connection sent and received, in order.
type connLog struct {
	samples []sample
	refs    []ingestRef
}

var hashSeed = maphash.MakeSeed()

// drive runs the closed loop on every connection until end and returns
// what each connection sent and received.
func drive(addr string, tr traffic, end time.Time, g *gate, served *atomic.Int64) []connLog {
	conns := connections()
	logs := make([]connLog, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = driveConn(addr, tr, c, conns, end, g, served)
		}(c)
	}
	wg.Wait()
	return logs
}

// script is one connection's request sequence: advise traces from the
// workload's chooser, alternating with ingest posts when the workload
// ingests.
type script struct {
	tr     traffic
	next   func() int
	stream *ingestStream
	i      int
}

func newScript(tr traffic, c, conns int) *script {
	s := &script{tr: tr, next: tr.pick(c)}
	if tr.ingest != nil {
		s.stream = newIngestStream(*tr.ingest, c, conns, activePerConn)
	}
	return s
}

// request returns the next request: its kind, the advise trace index (for
// advise), the ingest post (for ingest), and its path and body.
func (s *script) request() (kind reqKind, trace int, post ingestRef, path string, body []byte) {
	s.i++
	if s.stream != nil && s.i%2 == 0 {
		post = s.stream.nextPost()
		return ingestReq, 0, post, profilesPath, s.tr.ingest.body(post)
	}
	trace = s.next()
	return adviseReq, trace, post, advisePath, s.tr.advise[trace].body
}

// driveConn is one closed-loop client: it sends its next request as soon
// as the previous response has been read.
func driveConn(addr string, tr traffic, c, conns int, end time.Time, g *gate, served *atomic.Int64) connLog {
	client := newConn(addr)
	defer client.close()
	sc := newScript(tr, c, conns)
	first := map[int]uint64{}
	var l connLog
	for {
		g.mu.RLock()
		s := sample{start: time.Now()}
		if !s.start.Before(end) {
			g.mu.RUnlock()
			return l
		}
		kind, trace, post, path, body := sc.request()
		s.kind, s.ref = kind, trace
		if kind == ingestReq {
			s.ref = len(l.refs)
			l.refs = append(l.refs, post)
		}
		var resp []byte
		s.status, resp, s.err = client.post(path, body)
		s.lat = time.Since(s.start)
		g.mu.RUnlock()
		served.Add(1)
		if s.err != nil {
			// A server that is gone fails every request at once; pace the
			// failures instead of filling memory with them.
			time.Sleep(10 * time.Millisecond)
		}
		if s.kind == adviseReq {
			s.hash = maphash.Bytes(hashSeed, resp)
			if h, ok := first[s.ref]; !ok || h != s.hash {
				if !ok {
					first[s.ref] = s.hash
				}
				s.body = resp
			}
		} else {
			s.body = resp
		}
		l.samples = append(l.samples, s)
	}
}

// rssReading is the server's peak resident set once it had answered
// served requests.
type rssReading struct {
	mb     float64
	served int64
	err    error
}

// watchRSS reads the server's peak resident set as soon as it has answered
// after requests, or at end if a run is too short for that many.
func watchRSS(pid int, served *atomic.Int64, after int64, end time.Time) rssReading {
	for served.Load() < after && time.Now().Before(end) {
		time.Sleep(10 * time.Millisecond)
	}
	n := served.Load()
	mb, err := peakRSSMB(pid)
	return rssReading{mb: mb, served: n, err: err}
}

// snapshot is the outside view of the server and the generator at one
// instant of the run.
type snapshot struct {
	serverCPU time.Duration
	selfCPU   time.Duration
	metrics   map[string]float64
}

func takeSnapshot(c *http.Client, s *server) (snapshot, error) {
	cpu, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return snapshot{}, err
	}
	self, err := procCPU(os.Getpid())
	if err != nil {
		return snapshot{}, err
	}
	body, err := get(c, "http://"+s.addr+"/metrics")
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{serverCPU: cpu, selfCPU: self, metrics: parseExposition(body)}, nil
}

// delta returns the per-family increase of every metric since before.
func (s snapshot) delta(before snapshot) map[string]float64 {
	d := make(map[string]float64, len(s.metrics))
	for k, v := range s.metrics {
		d[k] = v - before.metrics[k]
	}
	return d
}

// parseExposition sums the samples of each metric name in a text
// exposition, over all label sets.
func parseExposition(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 { // exemplar
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// batchWaitUs returns the median submit-to-resolution latency of the
// batched advise decisions still in the server's decision journal.
func batchWaitUs(c *http.Client, addr string) (float64, int, error) {
	body, err := get(c, "http://"+addr+"/debug/decisions?format=json&source=advise")
	if err != nil {
		return 0, 0, err
	}
	var resp struct {
		Records []struct {
			Path      string `json:"path"`
			LatencyNs int64  `json:"latency_ns"`
		} `json:"records"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, 0, fmt.Errorf("decoding /debug/decisions: %w", err)
	}
	var us []float64
	for _, r := range resp.Records {
		if r.Path == "batch" {
			us = append(us, float64(r.LatencyNs)/1e3)
		}
	}
	return median(us), len(us), nil
}

// planMatches reports whether an advise response carries exactly the want
// plan.
func planMatches(body []byte, want []core.PlanEntry) bool {
	var resp struct {
		Plan []core.PlanEntry `json:"plan"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	if len(resp.Plan) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(resp.Plan, want)
}

// verifyAdvise checks every advise response against the plan the
// in-process advisor computes for the same trace (the CLI's plan).
func verifyAdvise(rep *report, brainy *core.Brainy, traces []adviseTrace, logs []connLog) {
	want := map[int][]core.PlanEntry{}
	verdict := map[int]map[uint64]bool{}
	for _, l := range logs {
		for _, s := range l.samples {
			if s.kind != adviseReq {
				continue
			}
			rep.Attempted++
			if s.err != nil || s.status != http.StatusOK {
				rep.fail("advise trace %d: status %d, error %v", s.ref, s.status, s.err)
				continue
			}
			if s.body != nil {
				w, ok := want[s.ref]
				if !ok {
					w = brainy.Analyze(traces[s.ref].profiles, arch).Plan()
					want[s.ref] = w
					verdict[s.ref] = map[uint64]bool{}
				}
				verdict[s.ref][s.hash] = planMatches(s.body, w)
			}
			if !verdict[s.ref][s.hash] {
				rep.fail("advise trace %d: plan differs from the in-process plan", s.ref)
			}
		}
	}
}

// verifyIngest replays every instance's windows, in the order the server
// received them, through an in-process drift detector on the same registry,
// and checks each response's acceptance count and drift events against the
// replay.
func verifyIngest(rep *report, brainy *core.Brainy, pool ingestPool, logs []connLog) {
	det := drift.New(brainy.Suggest, drift.Config{})
	events := 0
	for _, l := range logs {
		for _, s := range l.samples {
			if s.kind != ingestReq {
				continue
			}
			rep.Attempted++
			ref := l.refs[s.ref]
			windows := pool.postWindows(ref)
			var want []drift.Event
			unadvised := 0
			for i := range windows {
				ev, err := det.Observe(&windows[i], arch)
				if err != nil {
					unadvised++
				}
				if ev != nil {
					want = append(want, *ev)
				}
			}
			if s.err != nil || s.status != http.StatusOK {
				rep.fail("ingest %s post %d: status %d, error %v", instanceContext(ref.inst, ref.pass), ref.post, s.status, s.err)
				continue
			}
			var got struct {
				Accepted   int           `json:"accepted"`
				OutOfOrder int           `json:"out_of_order"`
				Unadvised  int           `json:"unadvised"`
				Drift      []drift.Event `json:"drift"`
			}
			if err := json.Unmarshal(s.body, &got); err != nil {
				rep.fail("ingest %s post %d: %v", instanceContext(ref.inst, ref.pass), ref.post, err)
				continue
			}
			events += len(got.Drift)
			if got.Accepted != len(windows) || got.OutOfOrder != 0 || got.Unadvised != unadvised ||
				!(len(got.Drift) == 0 && len(want) == 0 || reflect.DeepEqual(got.Drift, want)) {
				rep.fail("ingest %s post %d: response %+v, replay wants %d accepted, %d unadvised, events %+v",
					instanceContext(ref.inst, ref.pass), ref.post, got, len(windows), unadvised, want)
			}
		}
	}
	rep.set("drift.events", float64(events), "count", events)
}
