package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The machine is shared, and its speed drifts by a quarter and more over
// minutes as other tenants come and go: server CPU per request, generator
// CPU per request and throughput all move with it, run after run. So the
// benchmark measures the host's speed as well: how many times per CPU
// second it does a fixed piece of work (decode JSON lines, score them,
// encode an indented JSON answer, the shape of an advise request), written
// with the standard library alone and so the same on every commit. The
// measurements are interleaved with the workload, and its times are reported
// at the speed of record, which cancels a drift of the host but not a
// change of the program.

const (
	// speedEvery is the spacing of speed measurements during a serving
	// workload, and speedBurst their length: the host's speed moves within
	// seconds, and a tenth of the run is spent following it.
	speedEvery = 2 * time.Second
	speedBurst = 200 * time.Millisecond
	// speedOfRecord is the work's rate per CPU second on the machine of
	// record (README.md); the metrics read as if measured there.
	speedOfRecord = 3000.0
	// speedBodies distinct bodies of speedRecords JSON lines each.
	speedBodies  = 64
	speedRecords = 16
)

// speedRecord is one line of the fixed work's input.
type speedRecord struct {
	Context string             `json:"context"`
	Kind    string             `json:"kind"`
	Calls   int                `json:"calls"`
	Ops     map[string]float64 `json:"ops"`
	HW      []float64          `json:"hw"`
}

// speedAnswer is the fixed work's answer for one record.
type speedAnswer struct {
	Context string  `json:"context"`
	Pick    string  `json:"pick"`
	Score   float64 `json:"score"`
}

// speedWork decodes every line of body, scores it and encodes the answers
// as indented JSON.
func speedWork(body []byte) ([]byte, error) {
	var answers []speedAnswer
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var rec speedRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		names := make([]string, 0, len(rec.Ops))
		for k := range rec.Ops {
			names = append(names, k)
		}
		sort.Strings(names)
		best, score := "", 0.0
		for i, k := range names {
			if s := rec.Ops[k] * rec.HW[i%len(rec.HW)] / float64(rec.Calls+1); s > score {
				best, score = k, s
			}
		}
		answers = append(answers, speedAnswer{Context: rec.Context, Pick: best, Score: score})
	}
	return json.MarshalIndent(map[string]any{"answers": answers}, "", "  ")
}

// speedInputs are the fixed work's inputs, from a fixed seed.
func speedInputs() [][]byte {
	rng := rand.New(rand.NewSource(1))
	ops := []string{"insert", "find", "erase", "iterate", "push_back", "pop_front", "lower_bound", "size"}
	bodies := make([][]byte, speedBodies)
	for b := range bodies {
		var buf bytes.Buffer
		for i := 0; i < speedRecords; i++ {
			rec := speedRecord{Context: fmt.Sprintf("ref/%d/%d", b, i), Kind: ops[rng.Intn(len(ops))],
				Calls: 100 + rng.Intn(10000), Ops: map[string]float64{}}
			for _, o := range ops {
				rec.Ops[o] = float64(rng.Intn(5000))
			}
			for j := 0; j < 12; j++ {
				rec.HW = append(rec.HW, rng.Float64()*1e6)
			}
			line, _ := json.Marshal(rec) // a speedRecord always marshals
			buf.Write(line)
			buf.WriteByte('\n')
		}
		bodies[b] = buf.Bytes()
	}
	return bodies
}

// selfCPU is the CPU time this process has used, to the microsecond.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speedMeter measures the host's speed and keeps every measurement.
type speedMeter struct {
	inputs [][]byte

	mu      sync.Mutex
	samples []speedSample
}

// speedSample is one measurement: when it ran, the host's speed relative
// to the machine of record, and the CPU time it took with its collection.
type speedSample struct {
	from, to time.Time
	speed    float64
	cpu      time.Duration
}

func newSpeedMeter() *speedMeter { return &speedMeter{inputs: speedInputs()} }

// measure runs the fixed work on every CPU for speedBurst and returns its
// rate per CPU second over speedOfRecord. It must run while nothing else
// of the benchmark's does; it starts from a fresh garbage-collection cycle
// so that the benchmark's own heap is not marked on its time.
func (m *speedMeter) measure() (float64, error) {
	cpuGC := selfCPU()
	runtime.GC()
	workers := runtime.GOMAXPROCS(0)
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	cpu0, t0 := selfCPU(), time.Now()
	end := t0.Add(speedBurst)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(end); i++ {
				if _, err := speedWork(m.inputs[i%len(m.inputs)]); err != nil {
					errs[w] = err
					return
				}
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	cpu, t1 := selfCPU()-cpu0, time.Now()
	n := 0
	for w := range counts {
		if errs[w] != nil {
			return 0, fmt.Errorf("host speed work: %w", errs[w])
		}
		n += counts[w]
	}
	speed := float64(n) / cpu.Seconds() / speedOfRecord
	m.mu.Lock()
	m.samples = append(m.samples, speedSample{from: t0, to: t1, speed: speed, cpu: cpu + cpu0 - cpuGC})
	m.mu.Unlock()
	return speed, nil
}

// span is a stretch of a run whose times are reported at the host's speed
// over it.
type span struct {
	from         time.Time
	steal, total uint64
}

func (m *speedMeter) begin() (span, error) {
	steal, total, err := cpuTicks()
	return span{from: time.Now(), steal: steal, total: total}, err
}

// speedOver is the host's speed over sp until now, relative to the machine
// of record, from the median of the measurements that ended in it and the
// share of CPU time the host took: time stolen by the host is invisible to
// a CPU-time rate, and it slows the workload all the same. It returns the
// number of measurements and the stolen share too.
func (m *speedMeter) speedOver(sp span) (speed float64, n int, stolen float64, err error) {
	steal, total, err := cpuTicks()
	if err != nil {
		return 0, 0, 0, err
	}
	if total > sp.total {
		stolen = float64(steal-sp.steal) / float64(total-sp.total)
	}
	speed, n, err = m.medianSince(sp.from)
	return hostSpeed(speed, stolen), n, stolen, err
}

// hostSpeed combines the meter's instruction speed with the share of CPU
// time the host took. Stolen time slows a workload in full. Instruction
// speed does not: part of a request's time is spent in the kernel, on the
// loopback network and on timers, which follow the meter less, and in
// sets of runs of every workload the meter moved further than the workload
// did. Of the powers of it tried (0, 0.5, 0.75 and 1), its square root gave
// the steadiest figures in ten-run sets at the run length of record;
// README.md has the figures.
func hostSpeed(instruction, stolen float64) float64 {
	return math.Sqrt(instruction) * (1 - stolen)
}

// medianSince is the median of the measurements that ended since from,
// and their number.
func (m *speedMeter) medianSince(from time.Time) (float64, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s []float64
	for _, x := range m.samples {
		if !x.to.Before(from) {
			s = append(s, x.speed)
		}
	}
	if len(s) == 0 {
		return 0, 0, fmt.Errorf("no host speed measurement since %v", from)
	}
	return median(s), len(s), nil
}

// cpuFrom is the CPU time spent measuring since from.
func (m *speedMeter) cpuFrom(from time.Time) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var d time.Duration
	for _, x := range m.samples {
		if !x.from.Before(from) {
			d += x.cpu
		}
	}
	return d
}

// gate pauses the workload's traffic while the host's speed is measured:
// every request holds it shared and a measurement holds it exclusively, so
// a measurement starts once the requests in flight have finished, and no
// request starts during one. The traffic between two measurements is a
// segment.
type gate struct {
	mu       sync.RWMutex
	segments []segment
}

// segment is a stretch of uninterrupted traffic.
type segment struct {
	from, to time.Time
	// stolen is the share of CPU time the host took during the segment.
	stolen float64
	// speed is the mean of the host speeds measured at its two ends.
	speed float64
}

// run measures the host's speed now and every speedEvery until end, and
// records the segments in between. Traffic may start once run has been
// called; the first measurement holds it back.
func (g *gate) run(m *speedMeter, end time.Time) error {
	g.mu.Lock()
	speed, err := m.measure()
	from := time.Now()
	steal0, total0, err2 := cpuTicks()
	g.mu.Unlock()
	if err == nil {
		err = err2
	}
	for next := from.Add(speedEvery); err == nil; next = next.Add(speedEvery) {
		last := !next.Before(end)
		if last {
			next = end
		}
		time.Sleep(time.Until(next))
		g.mu.Lock()
		to := time.Now()
		steal1, total1, err1 := cpuTicks()
		nextSpeed := speed
		if !last && err1 == nil {
			nextSpeed, err1 = m.measure()
		}
		seg := segment{from: from, to: to, speed: (speed + nextSpeed) / 2}
		if total1 > total0 {
			seg.stolen = float64(steal1-steal0) / float64(total1-total0)
		}
		g.segments = append(g.segments, seg)
		from, speed, steal0, total0 = time.Now(), nextSpeed, steal1, total1
		g.mu.Unlock()
		if err1 != nil || last {
			return err1
		}
	}
	return err
}

// quieter returns the segments that started at or after from and are
// quiet by quiet's rule.
func (g *gate) quieter(from time.Time) []segment {
	g.mu.RLock()
	var segs []segment
	for _, s := range g.segments {
		if !s.from.Before(from) {
			segs = append(segs, s)
		}
	}
	g.mu.RUnlock()
	return quiet(segs, func(s segment) float64 { return s.stolen })
}

// stealSlack is how much larger a share of CPU time than in the quietest
// stretch the host may take in another for it to count as quiet too.
const stealSlack = 0.02

// quiet sorts stretches of a run by the share of CPU time the host took in
// them and returns the quiet ones: those within stealSlack of the quietest,
// or the quieter half if that is more, at least one. A run that shares its
// machine with a busy tenant for part of its time is then measured on the
// rest, and a run on a quiet host on all of it.
func quiet[T any](xs []T, stolen func(T) float64) []T {
	sort.SliceStable(xs, func(i, j int) bool { return stolen(xs[i]) < stolen(xs[j]) })
	n := (len(xs) + 1) / 2
	for n < len(xs) && stolen(xs[n]) <= stolen(xs[0])+stealSlack {
		n++
	}
	return xs[:n]
}
