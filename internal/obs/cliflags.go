package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"deesim/internal/runx"
)

// cliFlags is the observability flag block every deesim binary carries:
// -version, -log-level, -log-json, -metrics-out, -flight-out. Main
// registers it and owns everything it controls.
type cliFlags struct {
	version    bool
	logLevel   string
	logJSON    bool
	metricsOut string

	mu        sync.Mutex // guards flightOut; serializes metric snapshots (signal vs. exit)
	flightOut string
	quit      chan os.Signal // SIGQUIT, once a flight-out path is known
}

type cliKey struct{}

// Main is the one process lifecycle of every deesim binary: each main
// is os.Exit(realMain(...)), and realMain is its flags plus a call to
// Main with the body that does the binary's work.
//
// Main registers the shared flag block on fs and parses args (exit 2
// on a flag error or -h); with -version it prints the build info to
// stdout and exits 0. Otherwise it installs the process logger on
// stderr — every stderr line after that is one of its records, so
// -log-json and -log-level govern all of it — and runs body under a
// context that the first SIGINT or SIGTERM cancels and, when fs has a
// -timeout duration set above 0, that expires after it.
//
// The first signal also writes -metrics-out at once and restores the
// default handler, so a second signal kills the process: a drain cut
// short that way still leaves its telemetry on disk. With -flight-out
// set (or defaulted by DefaultFlightOut), SIGQUIT dumps the flight
// recorder to <flight-out>.sigquit and the process keeps running. A
// panic records itself, dumps <flight-out>.panic, writes -metrics-out
// and re-panics.
//
// A body error is logged once at Error and sets the exit code
// (runx.ExitCode; an error wrapping flag.ErrHelp is a usage error,
// exit 2). On every path out -metrics-out is written, and a nonzero
// exit dumps the flight recorder to <flight-out>.exit.
func Main(name string, fs *flag.FlagSet, args []string, stdout, stderr io.Writer,
	body func(ctx context.Context, log *slog.Logger) error) int {
	f := &cliFlags{}
	fs.BoolVar(&f.version, "version", false, "print build/version info and exit")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&f.logJSON, "log-json", false, "emit logs as JSON lines instead of text")
	fs.StringVar(&f.metricsOut, "metrics-out", "", "write a Prometheus-format snapshot of the run's metrics to this file on exit")
	fs.StringVar(&f.flightOut, "flight-out", "", "flight-recorder dump path: written on SIGQUIT, panic, and nonzero exit (daemons default it into -state and persist it continuously)")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return runx.ExitUsage
	}
	if f.version {
		PrintVersion(stdout, name)
		return runx.ExitOK
	}

	level, err := ParseLevel(f.logLevel)
	log := NewLogger(stderr, level, f.logJSON)
	if err == nil {
		slog.SetDefault(log)
		err = f.run(name, fs, log, body)
	}
	code := runx.ExitCode(err)
	if errors.Is(err, flag.ErrHelp) {
		code = runx.ExitUsage
	}
	if err != nil {
		log.LogAttrs(context.Background(), slog.LevelError, "exiting on error", slog.Int("code", code), slog.Any("err", err))
	}
	if err := f.writeMetrics(); err != nil {
		log.LogAttrs(context.Background(), slog.LevelWarn, "write metrics failed", slog.Any("err", err))
	}
	if code != runx.ExitOK {
		Flight.Record("exit", fmt.Sprintf("exit code %d", code), map[string]string{"proc": name})
		if err := f.dumpFlight(name, "exit"); err != nil {
			log.LogAttrs(context.Background(), slog.LevelError, "flight dump failed", slog.String("proc", name), slog.Any("err", err))
		}
	}
	return code
}

// run runs body under the signal/timeout context and the panic dump.
func (f *cliFlags) run(name string, fs *flag.FlagSet, log *slog.Logger,
	body func(ctx context.Context, log *slog.Logger) error) error {
	defer func() {
		if p := recover(); p != nil {
			Flight.Record("panic", fmt.Sprint(p), map[string]string{"proc": name})
			_ = f.dumpFlight(name, "panic") // best effort: the panic itself is the report
			_ = f.writeMetrics()
			panic(p)
		}
	}()
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := context.WithValue(base, cliKey{}, f)
	if fl := fs.Lookup("timeout"); fl != nil {
		if d, ok := fl.Value.(flag.Getter).Get().(time.Duration); ok && d > 0 {
			var stop context.CancelFunc
			ctx, stop = context.WithTimeout(ctx, d)
			defer stop()
		}
	}
	stop := f.watchSignals(name, log, cancel)
	defer stop()
	return body(ctx, log)
}

// watchSignals handles SIGINT/SIGTERM and SIGQUIT until stop, which
// returns once the watcher has exited.
func (f *cliFlags) watchSignals(name string, log *slog.Logger, cancel context.CancelFunc) (stop func()) {
	term := make(chan os.Signal, 1)
	signal.Notify(term, os.Interrupt, syscall.SIGTERM)
	f.mu.Lock()
	f.quit = make(chan os.Signal, 1)
	if f.flightOut != "" {
		signal.Notify(f.quit, syscall.SIGQUIT)
	}
	f.mu.Unlock()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			case <-term:
				signal.Stop(term)
				cancel()
				if err := f.writeMetrics(); err != nil {
					log.LogAttrs(context.Background(), slog.LevelWarn, "flush on signal failed", slog.Any("err", err))
				}
			case <-f.quit:
				Flight.Record("signal", "SIGQUIT", map[string]string{"proc": name})
				if err := f.dumpFlight(name, "sigquit"); err != nil {
					log.LogAttrs(context.Background(), slog.LevelWarn, "flight dump on SIGQUIT failed", slog.Any("err", err))
				} else {
					log.LogAttrs(context.Background(), slog.LevelInfo, "flight recorder dumped",
						slog.String("path", f.flightPath()+".sigquit"))
				}
			}
		}
	}()
	return func() {
		signal.Stop(term)
		signal.Stop(f.quit)
		close(done)
		<-exited
	}
}

// DefaultFlightOut points -flight-out at path when the user left it
// empty, arms the SIGQUIT dump, and returns the path in effect. Daemons
// call it with a state-dir location so the black box is on by default.
// Outside a context from Main it returns path.
func DefaultFlightOut(ctx context.Context, path string) string {
	f, ok := ctx.Value(cliKey{}).(*cliFlags)
	if !ok {
		return path
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.flightOut == "" {
		f.flightOut = path
	}
	signal.Notify(f.quit, syscall.SIGQUIT)
	return f.flightOut
}

func (f *cliFlags) flightPath() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flightOut
}

// dumpFlight writes the process flight recorder to -flight-out,
// suffixing the filename with the reason so a forced dump (sigquit,
// exit, panic) never races the periodic snapshot that shares the base
// path. No-op without the flag.
func (f *cliFlags) dumpFlight(proc, reason string) error {
	path := f.flightPath()
	if path == "" {
		return nil
	}
	return Flight.WriteDump(path+"."+reason, proc, reason)
}

// writeMetrics dumps the default registry to -metrics-out in Prometheus
// text format; a no-op without the flag. The signal flush and the exit
// path may both write (last writer wins); the mutex keeps the file
// from interleaving.
func (f *cliFlags) writeMetrics() error {
	if f.metricsOut == "" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fh, err := os.Create(f.metricsOut)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := Default.WritePrometheus(fh); err != nil {
		fh.Close()
		return fmt.Errorf("metrics-out %s: %w", f.metricsOut, err)
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("metrics-out %s: %w", f.metricsOut, err)
	}
	return nil
}
