package obs

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"deesim/internal/runx"
)

// waitFile polls until path exists.
func waitFile(t *testing.T, path string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(path); err == nil {
			return
		}
	}
	t.Errorf("%s never appeared", path)
}

func runMain(t *testing.T, args []string, body func(ctx context.Context, log *slog.Logger) error) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := Main("test", flag.NewFlagSet("test", flag.ContinueOnError), args, &stdout, &stderr, body)
	return code, stderr.String()
}

// TestMainSignalCancelsAndFlushes: the first SIGTERM cancels the body's
// context and writes -metrics-out before the body returns; the run then
// exits with the canceled code.
func TestMainSignalCancelsAndFlushes(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.prom")
	code, stderr := runMain(t, []string{"-metrics-out", metrics}, func(ctx context.Context, _ *slog.Logger) error {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			return err
		}
		<-ctx.Done()
		waitFile(t, metrics)
		return runx.CtxErr(ctx, "test")
	})
	if code != runx.ExitCanceled {
		t.Errorf("exit code %d, want %d\n%s", code, runx.ExitCanceled, stderr)
	}
}

// TestMainQuitDumpsFlight: DefaultFlightOut arms the SIGQUIT dump, which
// writes <flight-out>.sigquit and leaves the run going.
func TestMainQuitDumpsFlight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	code, stderr := runMain(t, nil, func(ctx context.Context, _ *slog.Logger) error {
		if got := DefaultFlightOut(ctx, path); got != path {
			return fmt.Errorf("DefaultFlightOut = %q, want %q", got, path)
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
			return err
		}
		waitFile(t, path+".sigquit")
		return ctx.Err()
	})
	if code != runx.ExitOK {
		t.Errorf("exit code %d, want 0\n%s", code, stderr)
	}
}

// TestMainExitPaths: a failure exits with its kind's code (a usage
// error with 2), writes -metrics-out and <flight-out>.exit; a panic
// dumps <flight-out>.panic and writes -metrics-out before re-panicking.
func TestMainExitPaths(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		code int
	}{
		{"ok", nil, runx.ExitOK},
		{"deadlock", runx.Newf(runx.KindDeadlock, "test", "stuck"), runx.ExitDeadlock},
		{"usage", fmt.Errorf("missing command: %w", flag.ErrHelp), runx.ExitUsage},
		{"plain", errors.New("boom"), runx.ExitError},
	} {
		dir := t.TempDir()
		metrics, flight := filepath.Join(dir, "m.prom"), filepath.Join(dir, "flight.json")
		code, _ := runMain(t, []string{"-metrics-out", metrics, "-flight-out", flight}, func(context.Context, *slog.Logger) error {
			return c.err
		})
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d", c.name, code, c.code)
		}
		if _, err := os.Stat(metrics); err != nil {
			t.Errorf("%s: no metrics snapshot: %v", c.name, err)
		}
		if _, err := os.Stat(flight + ".exit"); (err == nil) != (c.code != 0) {
			t.Errorf("%s: exit dump present = %v, want %v", c.name, err == nil, c.code != 0)
		}
	}

	dir := t.TempDir()
	metrics, flight := filepath.Join(dir, "m.prom"), filepath.Join(dir, "flight.json")
	func() {
		defer func() {
			if p := recover(); p != "bug" {
				t.Errorf("recovered %v, want the body's panic", p)
			}
		}()
		runMain(t, []string{"-metrics-out", metrics, "-flight-out", flight}, func(context.Context, *slog.Logger) error {
			panic("bug")
		})
	}()
	for _, path := range []string{metrics, flight + ".panic"} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("panic left no %s: %v", filepath.Base(path), err)
		}
	}
}
