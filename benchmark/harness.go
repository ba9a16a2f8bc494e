package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"deesim/internal/server"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	size      string
	out       string
	traceOut  string
	stateRoot string
}

func (o options) smoke() bool { return o.size == "smoke" }

// metric is one reported number. N is the sample count behind it; it
// is printed and written to --out records, but kept out of the final
// stdout line, whose metric objects carry only value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// record is one run's outcome, as written by --out and read by compare.
type record struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      uint64            `json:"seed,omitempty"`
	Trace     int               `json:"trace"`
	Size      string            `json:"size,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Raw holds the end-to-end metrics as measured, before the
	// canary's normalisation, and the canary's median.
	Raw map[string]metric `json:"raw,omitempty"`
}

// final is the stdout result line: exactly correct, attempted, failed
// and metrics, each metric exactly value and unit.
func (r *record) final() any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(r.Metrics))
	for n, m := range r.Metrics {
		ms[n] = vu{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

// sweep is one request of a workload's load: a matrix spec plus what
// the run observed delivering it.
type sweep struct {
	idx   int
	spec  server.Spec
	key   string // distinct-spec identity (the spec's JSON)
	cells int
	calls calls // simulator-layer calls the sweep makes, for the layer probe

	start, end time.Time
	submit     time.Duration // client.Submit round trip (service paths)
	waitDone   time.Time     // when client.Wait returned (service paths)
	jobID      string
	err        error
}

func (s *sweep) latency() time.Duration { return s.end.Sub(s.start) }

// system is one running deployment a workload drives: run delivers
// one sweep's result bytes; stop shuts the deployment down and waits
// for everything it started.
type system interface {
	run(ctx context.Context, sw *sweep) ([]byte, error)
	stop()
}

// phase is one closed-loop load phase's observations.
type phase struct {
	sweeps []*sweep
	wall   time.Duration
	cpu    time.Duration
	rssKiB int64
	outs   *outcomes
}

func (p *phase) ok() []*sweep {
	var out []*sweep
	for _, s := range p.sweeps {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func (p *phase) latenciesMs() []float64 {
	var xs []float64
	for _, s := range p.ok() {
		xs = append(xs, ms(s.latency()))
	}
	return xs
}

// drive sends sweeps from one closed-loop client until dur has elapsed:
// each sweep goes out only after the previous one completed, and at
// least one goes out. CPU time and peak RSS cover the whole process, so
// they include the deployment under test.
func drive(ctx context.Context, sys system, next func() *sweep, dur time.Duration) *phase {
	p := &phase{outs: newOutcomes()}
	cpu0 := cpuTime()
	start := time.Now()
	for first := true; first || time.Since(start) < dur; first = false {
		if ctx.Err() != nil {
			break
		}
		sw := next()
		sw.start = time.Now()
		body, err := sys.run(ctx, sw)
		sw.end = time.Now()
		sw.err = err
		if err == nil {
			p.outs.add(sw.key, sw.spec, body)
		}
		p.sweeps = append(p.sweeps, sw)
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rssKiB = peakRSSKiB()
	return p
}

// outcomes keeps, per distinct spec, the first delivered body and the
// digest of every delivery, so verification compares each delivery
// against one reference without holding every body in memory.
type outcomes struct {
	bySpec map[string]*outcome
}

type outcome struct {
	spec    server.Spec
	first   []byte
	digests map[[32]byte]int
}

func newOutcomes() *outcomes { return &outcomes{bySpec: map[string]*outcome{}} }

func (o *outcomes) add(key string, spec server.Spec, body []byte) {
	oc := o.bySpec[key]
	if oc == nil {
		oc = &outcome{spec: spec, first: body, digests: map[[32]byte]int{}}
		o.bySpec[key] = oc
	}
	oc.digests[sha256.Sum256(body)]++
}

// stats

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linear-interpolation quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median equals Python's statistics.median, as compare's quartiles
// equal statistics.quantiles.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never touches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// process accounting

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) // KiB on Linux
}

// stateDirs hands out fresh state directories under one per-run root,
// which the run removes when it ends.
type stateDirs struct {
	root string
	n    int
}

func newStateDirs(parent string) (*stateDirs, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(parent, "run-"+strconv.Itoa(os.Getpid())+"-")
	if err != nil {
		return nil, err
	}
	return &stateDirs{root: root}, nil
}

func (d *stateDirs) next(name string) string {
	d.n++
	return filepath.Join(d.root, fmt.Sprintf("%s-%d", name, d.n))
}

func (d *stateDirs) remove() { os.RemoveAll(d.root) }

func logf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "benchmark: "+format+"\n", args...)
}
