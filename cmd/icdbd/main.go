// Command icdbd serves the ICDB component database over the wire
// protocol (internal/wire): the paper's tool/database split as a
// long-lived service. Synthesis tools — or icdbq in client mode —
// connect over TCP, each getting its own CQL session (current width,
// tool-parameter overrides, expander reuse), while snapshot-isolated
// reads keep one client's streamed find from blocking another's writes.
//
// Usage:
//
//	icdbd [-addr 127.0.0.1:7390] [-db catalog] [-save] [-designs dir]
//	      [-open lazy|eager]
//	      [-journal] [-fsync always|off|<duration>] [-compact-at n]
//	      [-secret token] [-maxconns n] [-maxcmds n] [-maxrows n]
//	      [-idle d] [-wtimeout d] [-handshake d] [-grace d] [-v]
//
// With -db the catalog is loaded from the given snapshot file (the one
// format relstore reads — SNAPSHOT.md; a file of any other format
// version, or a JSON catalog, is refused before the listener binds and
// crosses over through "icdbq export" / "icdbq import"); without it the
// server starts from the builtin seeded catalog. -save writes the
// catalog back on graceful shutdown; it requires -db, and the save is
// skipped when nothing changed since boot. -designs names the only
// directory "expand <file>" commands may read designs from — without
// it, expand-from-file is disabled (the safe default for a network
// service).
//
// -open picks how the catalog is materialized. "lazy" (the default)
// decodes only the section directory and each table's schema at boot; a
// table's rows — and, under -journal, its share of uncovered journal
// records — materialize on first touch, so a large catalog serves its
// first query long before it is fully decoded. "eager" decodes every
// section up front, in parallel. The boot log reports the mode and
// "show server" exposes live hydration counters.
//
// -journal makes the catalog crash-safe incrementally persistent
// (relstore.OpenDurable): every mutation is write-ahead logged to
// <db>.wal before it is applied, recovery replays the journal over the
// snapshot (truncating a torn tail), and the journal is folded into
// the snapshot when it crosses -compact-at bytes and again at graceful
// shutdown. It requires -db and replaces -save (durability is
// continuous, not shutdown-time). -fsync picks the journal sync
// policy: "always" (the default; an acknowledged mutation survives any
// crash), "off" (sync only at compaction and shutdown), or a duration
// like "100ms" (sync at most that often; a crash loses at most the
// last interval). A stale .wal next to a catalog that advanced without
// journaling is rejected at boot rather than silently merged — delete
// the journal only if you mean to discard it. Durability state —
// journal size, records since last compaction, fsync policy, last
// recovery outcome — is visible to any client via "show server".
//
// -secret requires every client to present the same shared-secret
// token in its handshake (icdbq's -secret flag or the
// ICDB_SECRET env var); it defaults to the ICDBD_SECRET environment
// variable so the token can be kept out of process listings. The
// -maxconns/-maxcmds/-maxrows/-idle/-wtimeout/-handshake flags install
// the server limits documented in internal/wire (0 disables one);
// every violation answers a typed Error frame, never a raw TCP reset,
// and the live counters are visible to any client via "show server".
//
// SIGINT or SIGTERM shuts the server down gracefully: in-flight
// commands are aborted with a decodable shutdown Error, handlers get
// -grace to unwind, and then the catalog is saved atomically.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"icdb/internal/icdb"
	"icdb/internal/relstore"
	"icdb/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "icdbd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runServer(args, nil, nil) }

// runServer is run with test hooks: ready (if non-nil) receives the
// bound listen address once the server is accepting, and closing stop
// (if non-nil) triggers the same graceful shutdown a signal would.
func runServer(args []string, ready func(addr string), stop <-chan struct{}) error {
	fs := flag.NewFlagSet("icdbd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7390", "TCP address to listen on")
	dbPath := fs.String("db", "", "catalog snapshot to load; empty starts from the builtin seed")
	save := fs.Bool("save", false, "save the catalog back to -db on graceful shutdown")
	journal := fs.Bool("journal", false, "write-ahead journal every mutation to <db>.wal (crash-safe incremental persistence); requires -db, replaces -save")
	openMode := fs.String("open", "lazy", "catalog open mode: lazy (tables decode on first touch) or eager (everything at boot)")
	fsync := fs.String("fsync", "always", "journal sync policy: always, off, or an interval like 100ms")
	compactAt := fs.Int64("compact-at", 4<<20, "journal size in bytes that triggers compaction into the snapshot; <0 disables auto-compaction")
	designs := fs.String("designs", "", "directory expand commands may read design files from; empty disables expand-from-file")
	secret := fs.String("secret", os.Getenv("ICDBD_SECRET"), "shared-secret auth token clients must present (default $ICDBD_SECRET); empty disables auth")
	maxConns := fs.Int("maxconns", 256, "max concurrent connections; 0 = unlimited")
	maxCmds := fs.Int("maxcmds", 0, "max commands per session; 0 = unlimited")
	maxRows := fs.Int("maxrows", 0, "max streamed rows per session; 0 = unlimited")
	idle := fs.Duration("idle", 10*time.Minute, "idle session timeout; 0 = none")
	wtimeout := fs.Duration("wtimeout", 30*time.Second, "timeout of each socket write, one per burst of reply frames (unsticks stalled readers); 0 = none")
	handshake := fs.Duration("handshake", 10*time.Second, "handshake deadline (rejects stalled or partial preambles); 0 = none")
	grace := fs.Duration("grace", 5*time.Second, "shutdown grace period for in-flight sessions to unwind")
	verbose := fs.Bool("v", false, "log per-connection lifecycle events")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *save && *dbPath == "" {
		return fmt.Errorf("-save needs -db to know where to save")
	}
	if *journal && *dbPath == "" {
		return fmt.Errorf("-journal needs -db to know where the catalog lives")
	}
	if *journal && *save {
		return fmt.Errorf("-journal replaces -save (durability is continuous); drop -save")
	}
	policy, interval, err := parseFsync(*fsync)
	if err != nil {
		return err
	}
	mode, err := parseOpenMode(*openMode)
	if err != nil {
		return err
	}

	var store *relstore.Store
	var durable *relstore.Durable
	switch {
	case *journal:
		// Crash-safe path: load snapshot + replay journal, then journal
		// every further mutation. A missing catalog is simply a fresh
		// one — the journal records everything from the first boot on.
		durable, err = relstore.OpenDurable(*dbPath, relstore.DurableOptions{
			Fsync:         policy,
			FsyncInterval: interval,
			CompactAt:     *compactAt,
			Open:          mode,
		})
		if err != nil {
			return err
		}
		defer durable.Close()
		store = durable.Store
		log.Printf("journal %s: recovery %s", durable.Info().JournalPath, durable.Recovery())
	case *dbPath != "":
		if store, err = relstore.OpenSnapshot(*dbPath, relstore.SnapshotOptions{Mode: mode}); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				return err
			}
			// A missing -db file with -save is a fresh catalog to be
			// created at shutdown; without -save it is a mistake.
			if !*save {
				return fmt.Errorf("catalog %s does not exist (use -save to create it at shutdown)", *dbPath)
			}
			store = relstore.New()
			log.Printf("catalog %s does not exist; starting from the builtin seed", *dbPath)
		}
	default:
		store = relstore.New()
	}
	if *dbPath != "" {
		li := store.LazyInfo()
		bootMode := relstore.OpenEager
		if li.Lazy {
			bootMode = relstore.OpenLazy
		}
		log.Printf("catalog %s opened %s: %d section(s), %d journal record(s) deferred to hydration",
			*dbPath, bootMode, li.Tables, li.DeferredPending)
	}
	db, err := icdb.Open(store)
	if err != nil {
		return err
	}
	// Generation after icdb.Open's bootstrap/seeding is the baseline for
	// the shutdown no-op check: if nothing moved it, -save is skipped.
	baseGen := store.Generation()

	srv := &wire.Server{
		DB:     db,
		Secret: *secret,
		Limits: wire.Limits{
			MaxConns:           *maxConns,
			MaxSessionCommands: *maxCmds,
			MaxSessionRows:     *maxRows,
			IdleTimeout:        *idle,
			WriteTimeout:       *wtimeout,
			HandshakeTimeout:   *handshake,
		},
	}
	if durable != nil {
		srv.Durability = durable.Info
	}
	srv.Hydration = store.LazyInfo
	if *designs != "" {
		srv.ReadFile = designReader(*designs)
	}
	if *verbose {
		srv.Logf = log.Printf
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("icdbd listening on %s", ln.Addr())

	// Serve until a termination signal (or the test stop hook);
	// Shutdown aborts in-flight commands with a decodable Error frame,
	// waits up to -grace for handlers to unwind, and leaves the store
	// consistent for the save below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	if ready != nil {
		ready(ln.Addr().String())
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
		srv.Shutdown(*grace)
		<-done
	case <-stop:
		log.Printf("stop requested, shutting down")
		srv.Shutdown(*grace)
		<-done
	case err := <-done:
		if err != nil {
			return err
		}
	}

	switch {
	case durable != nil:
		// Fold the journal into the snapshot so the next boot opens
		// without a replay, then close (which syncs the tail).
		info := durable.Info()
		if err := durable.Compact(); err != nil {
			return fmt.Errorf("compacting journal: %w", err)
		}
		if err := durable.Close(); err != nil {
			return fmt.Errorf("closing journal: %w", err)
		}
		if *verbose {
			log.Printf("journal: %d append(s), %d sync(s), %d compaction(s), fsync=%s",
				info.Appends, info.Syncs, durable.Info().Compactions, info.Policy)
		}
		log.Printf("catalog compacted to %s", *dbPath)
	case *save:
		// Skip the full-catalog rewrite when no mutation landed since
		// boot — unless the file does not exist yet (fresh catalog).
		_, statErr := os.Stat(*dbPath)
		if store.Generation() == baseGen && statErr == nil {
			log.Printf("catalog unchanged; skipping save to %s", *dbPath)
			break
		}
		if err := store.SaveSnapshot(*dbPath); err != nil {
			return fmt.Errorf("saving catalog: %w", err)
		}
		log.Printf("catalog saved to %s", *dbPath)
	}
	return nil
}

// parseOpenMode maps the -open flag to a snapshot open mode.
func parseOpenMode(s string) (relstore.OpenMode, error) {
	switch s {
	case "lazy":
		return relstore.OpenLazy, nil
	case "eager":
		return relstore.OpenEager, nil
	}
	return 0, fmt.Errorf("-open must be lazy or eager (got %q)", s)
}

// parseFsync maps the -fsync flag to a journal sync policy: "always",
// "off", or a duration string for interval syncing.
func parseFsync(s string) (relstore.FsyncPolicy, time.Duration, error) {
	switch s {
	case "always":
		return relstore.FsyncAlways, 0, nil
	case "off":
		return relstore.FsyncOff, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-fsync must be always, off, or a positive duration (got %q)", s)
	}
	return relstore.FsyncInterval, d, nil
}

// designReader confines "expand <file>" reads to dir: the
// client-supplied path must be a local relative path (no absolute
// paths, no ".." escapes) and resolves inside dir.
func designReader(dir string) func(path string) ([]byte, error) {
	return func(path string) ([]byte, error) {
		if !filepath.IsLocal(path) {
			return nil, fmt.Errorf("design path %q must be relative to the server's designs directory", path)
		}
		return os.ReadFile(filepath.Join(dir, path))
	}
}
