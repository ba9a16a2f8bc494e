package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"deesim/internal/client"
	"deesim/internal/coord"
	"deesim/internal/durable"
	"deesim/internal/experiments"
	"deesim/internal/obs"
	"deesim/internal/server"
	"deesim/internal/superv"
)

// workload is one sweep a closed-loop client sends over and over: the
// spec, which deployment serves it, and how it is verified.
type workload struct {
	name string
	why  string
	spec func(o options) server.Spec
	// perCell is true when the deployment builds each cell's input
	// itself (experiments.RunCell) rather than once per input.
	perCell bool
	deploy  func(ctx context.Context, env *deployEnv) (system, error)
	// golden, when set, checks full-size results against the repo's
	// Figure 5 golden instead of an in-process reference run.
	golden bool
}

// Two sweep paths a user runs: the journaled deesim CLI, and
// deesim-coord leasing cells to two deesimd workers. One is bound by
// simulation, the other by rebuilding inputs and by the service layers.
//
// Both ignore the seed. The task order of a 72- or 16-cell sweep on two
// workers sets its makespan and which inputs are resident together, so
// permuting it by seed changed the sweep time by up to 20% and made
// every seed a different workload.
var workloads = []workload{
	{
		name:   "cli-figure5",
		why:    "journaled in-process sweep of all 8 inputs x 3 models x 3 ETs at full trace length; ilpsim run time dominates and there is no service layer",
		spec:   cliSpec,
		deploy: deployCLI,
		golden: true,
	},
	{
		name:    "fleet-rebuild",
		why:     "deesim-coord with 2 one-slot deesimd workers; every leased cell rebuilds its trace and simulator, and lease RPC and merge sit on the critical path",
		spec:    fleetSpec,
		perCell: true,
		deploy:  deployFleet,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

var (
	paperModels  = []string{"DEE-CD-MF", "SP", "EE"}
	allWorkloads = []string{"cc1", "compress", "eqntott", "espresso", "xlisp"}
)

// sweeps returns the workload's sweep source: the same spec every time,
// numbered from 1.
func (w workload) sweeps(o options) func() *sweep {
	template := newSweep(0, w.spec(o), w.perCell)
	n := 0
	return func() *sweep {
		n++
		sw := *template
		sw.idx = n
		return &sw
	}
}

// newSweep fills in everything derivable from the spec.
func newSweep(idx int, spec server.Spec, perCellBuild bool) *sweep {
	key, _ := json.Marshal(spec)
	return &sweep{
		idx:   idx,
		spec:  spec,
		key:   string(key),
		cells: spec.CellsTotal(),
		calls: matrixCalls(spec, perCellBuild),
	}
}

// cliSpec: the Figure 5 matrix restricted to three models and three ETs
// from its axis, every workload at full trace length, in paper order.
func cliSpec(o options) server.Spec {
	if o.smoke() {
		return server.Spec{Workloads: allWorkloads, Models: []string{"DEE-CD-MF", "SP"}, Resources: []int{8, 64}, MaxInstrs: 3000}
	}
	return server.Spec{Workloads: allWorkloads, Models: paperModels, Resources: []int{8, 64, 256}}
}

// fleetSpec: every input under DEE-CD-MF at two ETs, full length. Each
// leased cell rebuilds its input, so this is the build-bound sweep.
func fleetSpec(o options) server.Spec {
	if o.smoke() {
		return server.Spec{Workloads: []string{"cc1", "xlisp"}, Models: []string{"DEE-CD-MF"}, Resources: []int{32, 128}, MaxInstrs: 3000}
	}
	return server.Spec{Workloads: allWorkloads, Models: []string{"DEE-CD-MF"}, Resources: []int{32, 128}}
}

// deployments

// deployEnv is what a deployment needs from the run: fresh state
// directories and, in a traced phase, the tracer whose wrappers it
// wires in.
type deployEnv struct {
	dirs *stateDirs
	tr   *tracer
}

// fs is the durable.FS the deployment writes through: the timing
// wrapper in a traced phase, the real filesystem (nil) otherwise.
func (e *deployEnv) fs() durable.FS {
	if e.tr == nil {
		return nil
	}
	return e.tr.fs()
}

func (e *deployEnv) fragments(dir, proc string) (*obs.FragmentLog, error) {
	path := filepath.Join(dir, "fragments.jsonl")
	e.tr.noteFragments(path)
	return obs.OpenFragmentLog(path, proc)
}

type cliSystem struct {
	dir string
	fs  durable.FS
	tr  *tracer
}

// deployCLI prepares what `deesim -journal` needs before its first
// sweep: the state directory. The Figure 5 golden the results are
// checked against is loaded by verification, not here.
func deployCLI(_ context.Context, env *deployEnv) (system, error) {
	dir := env.dirs.next("deesim")
	if err := durable.Or(env.fs()).MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &cliSystem{dir: dir, fs: env.fs(), tr: env.tr}, nil
}

// run is what `deesim -journal <path> -jobs 2` runs: a journaled
// RunMatrixContext, here followed by the JSON encoding deesimd serves.
func (s *cliSystem) run(ctx context.Context, sw *sweep) ([]byte, error) {
	ws, cfg, err := sw.spec.Resolve()
	if err != nil {
		return nil, err
	}
	j, err := superv.CreateFS(s.fs, filepath.Join(s.dir, fmt.Sprintf("sweep-%d.journal", sw.idx)), "deesim", experiments.MatrixMeta(ws, cfg))
	if err != nil {
		return nil, err
	}
	defer j.Close()
	end := s.tr.span(sw, "cli", "experiments.RunMatrixContext")
	results, err := experiments.RunMatrixContext(ctx, ws, cfg, experiments.MatrixConfig{
		Jobs:    2,
		Journal: j,
		Retry:   superv.RetryPolicy{Attempts: 3, Backoff: 500 * time.Millisecond},
	})
	end()
	if err != nil {
		return nil, err
	}
	defer s.tr.span(sw, "cli", "json.MarshalIndent")()
	return json.MarshalIndent(results, "", "  ")
}

func (s *cliSystem) stop() {}

// host is one HTTP listener on loopback.
type host struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &host{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		_ = hs.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return hs, nil
}

func (h *host) close() {
	h.srv.Close()
	<-h.done
}

// serviceSystem is the load client of the fleet deployment: one
// client.Client doing Submit, Wait with a 2 ms poll, then Result.
type serviceSystem struct {
	client    *client.Client
	transport *http.Transport
	tr        *tracer
	teardown  func()
}

const waitPoll = 2 * time.Millisecond

func newServiceSystem(url string, tr *tracer, teardown func()) *serviceSystem {
	t := http.DefaultTransport.(*http.Transport).Clone()
	c := client.New(url)
	c.HTTP = &http.Client{Timeout: 30 * time.Second, Transport: tr.roundTripper(t)}
	return &serviceSystem{client: c, transport: t, tr: tr, teardown: teardown}
}

func (s *serviceSystem) run(ctx context.Context, sw *sweep) ([]byte, error) {
	// Every deesimctl submission mints a trace; so does every sweep here.
	tc := obs.NewTrace()
	s.tr.bindTrace(tc.TraceID, sw)
	ctx = withSweep(obs.WithTraceContext(ctx, tc), sw)
	c := s.client

	end := s.tr.span(sw, "client", "client.Submit")
	t0 := time.Now()
	st, err := c.Submit(ctx, sw.spec)
	sw.submit = time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	sw.jobID = st.ID
	s.tr.bindJob(st.ID, sw)

	end = s.tr.span(sw, "client", "client.Wait")
	_, err = c.Wait(ctx, st.ID, waitPoll)
	sw.waitDone = time.Now()
	end()
	if err != nil {
		return nil, err
	}
	defer s.tr.span(sw, "client", "client.Result")()
	return c.Result(ctx, st.ID)
}

func (s *serviceSystem) stop() {
	s.teardown()
	s.transport.CloseIdleConnections()
}

// fleetWorkers and the one-slot workers make every lease a wave: each
// worker runs one cell at a time, as in the cluster verification recipe.
const fleetWorkers = 2

// deployFleet wires deesim-coord plus two deesimd workers, each with
// -cell-slots 1 and a coord.Heartbeater over loopback, and returns once
// the coordinator's Fleet() lists both workers ready.
func deployFleet(ctx context.Context, env *deployEnv) (system, error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	cdir := env.dirs.next("coord")
	cfrags, err := env.fragments(cdir, "deesim-coord")
	if err != nil {
		return nil, err
	}
	stops = append(stops, func() { cfrags.Close() })
	ccfg := coord.Config{StateDir: cdir, Frags: cfrags, FS: env.fs()}
	if env.tr != nil {
		ccfg.NewWorkerClient = env.tr.workerClient
	}
	c, err := coord.New(ccfg)
	if err != nil {
		stopAll()
		return nil, err
	}
	ch, err := serve(env.tr.handler(c.Handler(), "deesim-coord"))
	if err != nil {
		c.Close()
		stopAll()
		return nil, err
	}
	c.Start()
	stops = append(stops, func() {
		_ = c.Drain(context.Background())
		ch.close()
	})

	// Stops run in reverse, so heartbeats keep beating while the workers
	// drain — the coordinator sees "draining" — as in deesimd's shutdown.
	hbCtx, hbStop := context.WithCancel(context.Background())
	var hbs sync.WaitGroup
	stops = append(stops, func() {
		hbStop()
		hbs.Wait()
	})
	for i := 0; i < fleetWorkers; i++ {
		wdir := env.dirs.next("worker")
		wfrags, err := env.fragments(wdir, "deesimd")
		if err != nil {
			stopAll()
			return nil, err
		}
		s, err := server.New(server.Config{StateDir: wdir, CellJobs: 1, CellSlots: 1, Frags: wfrags, FS: env.fs()})
		if err != nil {
			wfrags.Close()
			stopAll()
			return nil, err
		}
		wh, err := serve(env.tr.handler(s.Handler(), fmt.Sprintf("worker %d", i+1)))
		if err != nil {
			s.Close()
			wfrags.Close()
			stopAll()
			return nil, err
		}
		s.Start()
		stops = append(stops, func() {
			_ = s.Drain(context.Background())
			wh.close()
			wfrags.Close()
		})
		hb := &coord.Heartbeater{
			CoordURL: ch.url,
			SelfURL:  wh.url,
			Slots:    s.CellSlots(),
			State:    func() (string, int) { return s.WorkerState(), s.CellsActive() },
		}
		hbs.Add(1)
		go func() {
			defer hbs.Done()
			hb.Run(hbCtx)
		}()
	}
	if err := waitFleetReady(ctx, c, fleetWorkers); err != nil {
		stopAll()
		return nil, err
	}
	return newServiceSystem(ch.url, env.tr, stopAll), nil
}

func waitFleetReady(ctx context.Context, c *coord.Coordinator, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := 0
		for _, w := range c.Fleet() {
			if w.State == server.WorkerReady {
				ready++
			}
		}
		if ready >= n {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("fleet: %d of %d workers registered", ready, n)
		}
		time.Sleep(time.Millisecond)
	}
}
