package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"deesim/internal/durable"
	"deesim/internal/fsck"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

// Service is a job host behind its HTTP API, as Serve runs it:
// deesimd's Server and deesim-coord's Coordinator.
type Service interface {
	Start()
	Handler() http.Handler
	Drain(ctx context.Context) error
	Close()
}

// ServeFlags are the deployment flags deesimd and deesim-coord share:
// -addr, -addr-file, -state and -fsck.
type ServeFlags struct {
	Addr, AddrFile, State string
	Fsck                  bool
}

// Serve is the one serve path of deesimd and deesim-coord, run as the
// body of obs.Main for the process proc.
//
// With -fsck it only integrity-checks the state directory, printing
// per-artifact verdicts on stdout. Otherwise it defaults -flight-out
// into the state directory and persists the flight recorder there
// continuously (so even SIGKILL leaves a dump naming the in-flight
// cells), opens the state directory's span-fragment log and builds the
// service over it with open, listens, writes the bound address to
// stdout and -addr-file, and serves. onServe, if non-nil, runs once
// serving with the bound address and a context that ends after the
// drain (deesimd's heartbeater beats through it).
//
// When ctx ends (the first SIGINT/SIGTERM) the service drains, then
// HTTP shuts down and Serve returns nil; a second signal kills the
// process. A serve failure closes the service and is returned.
func Serve(ctx context.Context, log *slog.Logger, stdout io.Writer, proc string, f ServeFlags,
	open func(frags *obs.FragmentLog) (Service, error), onServe func(ctx context.Context, addr string)) error {
	if f.Fsck {
		r, err := fsck.Dir(nil, f.State)
		if err != nil {
			return err
		}
		r.Render(stdout)
		return r.Err()
	}

	flightOut := obs.DefaultFlightOut(ctx, filepath.Join(f.State, "flight.json"))
	flightCtx, stopFlight := context.WithCancel(context.Background())
	persisted := make(chan struct{})
	go func() {
		defer close(persisted)
		obs.Flight.Persist(flightCtx, flightOut, proc, 0)
	}()
	defer func() {
		stopFlight()
		<-persisted // the last snapshot is on disk before Serve returns
	}()

	frags, err := obs.OpenFragmentLog(filepath.Join(f.State, "fragments.jsonl"), proc)
	if err != nil {
		return runx.Newf(runx.KindUnknown, proc, "open fragment log: %v", err)
	}
	defer frags.Close()
	svc, err := open(frags)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		return runx.Newf(runx.KindUnavailable, proc, "listen %s: %v", f.Addr, err)
	}
	addr := ln.Addr().String()
	if f.AddrFile != "" {
		if err := durable.WriteFileAtomic(nil, f.AddrFile, []byte(addr+"\n")); err != nil {
			ln.Close()
			return err
		}
	}
	svc.Start()
	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.LogAttrs(ctx, slog.LevelInfo, "serving", slog.String("url", "http://"+addr), slog.String("state", f.State))
	fmt.Fprintln(stdout, addr)

	life, endLife := context.WithCancel(context.Background())
	defer endLife()
	if onServe != nil {
		onServe(life, addr)
	}
	select {
	case <-ctx.Done():
		log.LogAttrs(ctx, slog.LevelInfo, "signal received, draining")
		if err := svc.Drain(context.Background()); err != nil {
			return err
		}
		endLife()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.LogAttrs(ctx, slog.LevelWarn, "http shutdown failed", slog.Any("err", err))
		}
		log.LogAttrs(ctx, slog.LevelInfo, "drained, exiting")
		return nil
	case err := <-serveErr:
		svc.Close()
		return runx.Newf(runx.KindUnavailable, proc, "serve: %v", err)
	}
}
