// Command pfdserved is the multi-tenant PFD validation daemon: a
// single binary serving the /v1 HTTP API over the streaming engine.
// Each tenant carries its own hot-reloadable ruleset and isolated
// validation stream; reads answer in the same versioned pfd.Report
// envelope that `pfdstream -json` emits.
//
// Configuration comes from flags, or from PFDSERVED_* environment
// variables with the same spellings (-max-tenants ↔
// PFDSERVED_MAX_TENANTS); flags win. See README.md for the quickstart
// and DESIGN.md "Serving architecture" for the lifecycle.
//
//	pfdserved -addr 127.0.0.1:8321 -rules rules.json -tenant default
//
// Shutdown: the first SIGINT/SIGTERM starts a graceful drain —
// /healthz flips to 503, in-flight requests get DrainTimeout to
// finish, then every tenant engine is drained so the final counters
// account for every accepted tuple. A second signal hard-aborts.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pfd"
	"pfd/internal/serve"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("pfdserved: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := serve.DefaultConfig()
	if err := cfg.ApplyEnv(os.LookupEnv); err != nil {
		return err
	}
	fs := flag.NewFlagSet("pfdserved", flag.ExitOnError)
	cfg.RegisterFlags(fs)
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	cfg.Logf = log.Printf

	// hard is the engine lifetime context: canceling it aborts
	// validation work immediately (the second-signal escape hatch).
	hard, abort := context.WithCancel(context.Background())
	defer abort()

	srv, err := serve.NewContext(hard, cfg)
	if err != nil {
		return err
	}
	if cfg.Rules != "" {
		rs, err := pfd.LoadRulesetFile(cfg.Rules)
		if err != nil {
			return err
		}
		if err := srv.LoadTenant(cfg.Tenant, rs); err != nil {
			return err
		}
		log.Printf("preloaded %d rules into tenant %s from %s", rs.Len(), cfg.Tenant, cfg.Rules)
	}
	if cfg.Ref != "" {
		tbl, err := pfd.LoadSnapshotFile(cfg.Ref)
		if err != nil {
			return err
		}
		if err := srv.SetTenantRef(cfg.Tenant, tbl); err != nil {
			return err
		}
		log.Printf("tenant %s: warmup reference %s (%d rows)", cfg.Tenant, cfg.Ref, tbl.NumRows())
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	// The smoke script parses this line for the bound port; keep the
	// "listening on" spelling stable.
	log.Printf("listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("%v: draining (in-flight requests get %v; signal again to abort)", sig, cfg.DrainTimeout)
	}

	// Shutdown ordering: refuse new writes, let in-flight HTTP finish,
	// then drain the engines so everything accepted is accounted.
	srv.SetDraining()
	go func() {
		<-sigc
		log.Printf("second signal: aborting")
		abort()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v (closing engines anyway)", err)
	}
	start := time.Now()
	srv.Drain()
	log.Printf("engines drained in %v; bye", time.Since(start).Round(time.Millisecond))
	return nil
}
