package main

// Client-mode regression tests, pinning the exit-status contract: a
// RemoteError from "icdbq connect -c" must surface as a non-nil error
// (exit 1), success as nil — and transport retry must not turn a
// server-side rejection into a retry storm.

import (
	"net"
	"strings"
	"testing"

	"icdb/internal/icdb"
	"icdb/internal/relstore"
	"icdb/internal/wire"
)

// startWireServer serves a seeded catalog for client-mode tests.
func startWireServer(t *testing.T, cfg func(*wire.Server)) (*wire.Server, string) {
	t.Helper()
	db, err := icdb.Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{DB: db}
	if cfg != nil {
		cfg(srv)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func TestConnectOneShotExitStatus(t *testing.T) {
	_, addr := startWireServer(t, nil)

	if err := run([]string{"connect", "-addr", addr, "-c", "show impls"}); err != nil {
		t.Fatalf("good command: %v", err)
	}
	err := run([]string{"connect", "-addr", addr, "-c", "find component exectuing STORAGE"})
	if err == nil {
		t.Fatal("bad command exited zero")
	}
	if !strings.Contains(err.Error(), "exectuing") {
		t.Fatalf("bad command error does not carry the server message: %v", err)
	}
}

// TestRemoteCQLExitStatus: the retired "icdbq cql -remote <addr> <cmd>"
// spelling exits non-zero without reaching the server (or running the
// command locally); "connect -addr <addr> -c <cmd>" is the one-shot.
func TestRemoteCQLExitStatus(t *testing.T) {
	srv, addr := startWireServer(t, nil)

	if err := run([]string{"connect", "-addr", addr, "-c", "show session"}); err != nil {
		t.Fatalf("connect -c against the same server: %v", err)
	}
	if err := run([]string{"cql", "-remote", addr, "show session"}); err == nil {
		t.Fatal("cql -remote exited zero")
	}
	if n := srv.Stats().SessionsTotal; n != 1 {
		t.Fatalf("server saw %d session(s), want only connect's", n)
	}
}

func TestConnectSecretFlag(t *testing.T) {
	srv, addr := startWireServer(t, func(s *wire.Server) { s.Secret = "tok" })

	if err := run([]string{"connect", "-addr", addr, "-secret", "tok", "-c", "show impls"}); err != nil {
		t.Fatalf("authenticated one-shot: %v", err)
	}
	err := run([]string{"connect", "-addr", addr, "-secret", "bad", "-c", "show impls"})
	if err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("wrong secret: err = %v", err)
	}
	// The rejection was answered by the server, so the retry budget
	// must not have been spent hammering it.
	if n := srv.Stats().AuthFailures; n != 1 {
		t.Fatalf("auth failures = %d, want 1 (RemoteError retried?)", n)
	}

	t.Setenv("ICDB_SECRET", "tok")
	if err := run([]string{"connect", "-addr", addr, "-c", "show impls"}); err != nil {
		t.Fatalf("connect with ICDB_SECRET: %v", err)
	}
}

func TestConnectRefusedAddrFailsAfterRetries(t *testing.T) {
	// A port nothing listens on: grab one and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	err = run([]string{"connect", "-addr", addr, "-retries", "2", "-c", "show impls"})
	if err == nil {
		t.Fatal("connect to a dead address exited zero")
	}
}
