package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// CLIFlags is the shared observability flag block the deesim binaries
// carry: -version, -log-level, -log-json, -metrics-out. Register on a
// FlagSet (or flag.CommandLine), parse, then call Handle once and
// WriteMetrics on the way out.
type CLIFlags struct {
	Version    bool
	LogLevel   string
	LogJSON    bool
	MetricsOut string
	FlightOut  string

	mu sync.Mutex // serializes metric-snapshot writes (signal vs. exit)
}

// RegisterCLIFlags installs the shared flag block on fs.
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.BoolVar(&f.Version, "version", false, "print build/version info and exit")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit logs as JSON lines instead of text")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a Prometheus-format snapshot of the run's metrics to this file on exit")
	fs.StringVar(&f.FlightOut, "flight-out", "", "flight-recorder dump path: written on SIGQUIT, panic, and nonzero exit (daemons default it into -state and persist it continuously)")
	return f
}

// Handle applies the parsed block: with -version it prints the build
// info to stdout and returns done=true (the caller exits 0); otherwise
// it installs the process logger on stderr at the requested level and
// returns it. That logger is the process's one log API: every line a
// binary writes to stderr after Handle goes through it.
func (f *CLIFlags) Handle(name string, stdout, stderr io.Writer) (log *slog.Logger, done bool, err error) {
	if f.Version {
		PrintVersion(stdout, name)
		return nil, true, nil
	}
	log, err = SetupLogger(stderr, f.LogLevel, f.LogJSON)
	return log, false, err
}

// FlushOnSignal installs a watcher that flushes -metrics-out — and any
// extra flushers the binary registers, such as a -trace-out writer —
// the moment SIGINT or SIGTERM arrives, rather than only on clean
// exit. Deferred cleanup never runs when a drain is cut short by a
// second signal (or the process is killed mid-drain); flushing at
// first signal means the telemetry of an interrupted run still reaches
// disk. The exit-path WriteMetrics call stays in place and simply
// overwrites the snapshot with fresher numbers; the two writers are
// serialized on the flag block's mutex, so the file is never
// interleaved. Flush failures are logged as warnings on the logger
// Handle installed. The returned stop function uninstalls the watcher.
func (f *CLIFlags) FlushOnSignal(extra ...func() error) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
			return
		case <-ch:
		}
		for _, fn := range append([]func() error{f.WriteMetrics}, extra...) {
			if err := fn(); err != nil {
				slog.Default().LogAttrs(context.Background(), slog.LevelWarn, "flush on signal failed", slog.Any("err", err))
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}

// DefaultFlightOut fills -flight-out with path when the user left it
// empty — daemons call it with a state-dir location so the black box
// is on by default.
func (f *CLIFlags) DefaultFlightOut(path string) {
	if f.FlightOut == "" {
		f.FlightOut = path
	}
}

// DumpFlight writes the process flight recorder to -flight-out,
// suffixing the filename with the reason so a forced dump (sigquit,
// exit, panic) never races the periodic snapshot that shares the base
// path. No-op without the flag.
func (f *CLIFlags) DumpFlight(proc, reason string) error {
	if f.FlightOut == "" {
		return nil
	}
	return Flight.WriteDump(f.FlightOut+"."+reason, proc, reason)
}

// DumpFlightOnPanic is the flag-aware panic hook: `defer
// obsFlags.DumpFlightOnPanic("proc")` at the top of a binary's main
// records the panic, writes <flight-out>.panic, and re-panics so the
// crash surfaces normally. No-op recover passthrough without the flag.
func (f *CLIFlags) DumpFlightOnPanic(proc string) {
	if p := recover(); p != nil {
		Flight.Record("panic", fmt.Sprint(p), map[string]string{"proc": proc})
		if f.FlightOut != "" {
			_ = Flight.WriteDump(f.FlightOut+".panic", proc, "panic")
		}
		panic(p)
	}
}

// DumpFlightOnExit is the nonzero-structured-exit hook: binaries call
// it from their fail paths so every typed failure leaves a black box
// behind alongside the error message.
func (f *CLIFlags) DumpFlightOnExit(proc string, code int) {
	if code == 0 {
		return
	}
	Flight.Record("exit", fmt.Sprintf("exit code %d", code), map[string]string{"proc": proc})
	if err := f.DumpFlight(proc, "exit"); err != nil {
		slog.Default().LogAttrs(context.Background(), slog.LevelError, "flight dump failed",
			slog.String("proc", proc), slog.Any("err", err))
	}
}

// WatchQuit installs a SIGQUIT handler that dumps the flight recorder
// and keeps running — an operator can poke a live daemon for its
// black box without killing it. (Go's default SIGQUIT stack-dump-and-
// crash behavior is replaced while the watcher is installed.) The
// returned stop function uninstalls it. No-op without -flight-out.
func (f *CLIFlags) WatchQuit(proc string) (stop func()) {
	if f.FlightOut == "" {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ch:
				Flight.Record("signal", "SIGQUIT", map[string]string{"proc": proc})
				if err := f.DumpFlight(proc, "sigquit"); err != nil {
					slog.Default().LogAttrs(context.Background(), slog.LevelWarn, "flight dump on SIGQUIT failed", slog.Any("err", err))
				} else {
					slog.Default().LogAttrs(context.Background(), slog.LevelInfo, "flight recorder dumped",
						slog.String("path", f.FlightOut+".sigquit"))
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}

// WriteMetrics dumps the default registry to -metrics-out in
// Prometheus text format. A no-op without the flag, so callers defer
// it unconditionally. Safe to call more than once (the signal-flush
// path and the exit path may both write; last writer wins).
func (f *CLIFlags) WriteMetrics() error {
	if f.MetricsOut == "" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fh, err := os.Create(f.MetricsOut)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := Default.WritePrometheus(fh); err != nil {
		fh.Close()
		return fmt.Errorf("metrics-out %s: %w", f.MetricsOut, err)
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("metrics-out %s: %w", f.MetricsOut, err)
	}
	return nil
}
