package main

// Daemon lifecycle tests: graceful shutdown (by stop hook and by real
// SIGTERM) saves an atomic snapshot and tells in-flight sessions with
// a decodable Error frame instead of a raw TCP reset; the missing
// -db bootstrap paths behave as documented.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"icdb/internal/icdb"
	"icdb/internal/relstore"
	"icdb/internal/wire"
)

// startDaemon runs the server in-process with the stop hook wired up,
// returning its bound address, the stop trigger, and the exit channel.
func startDaemon(t *testing.T, args ...string) (string, chan struct{}, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runServer(append([]string{"-addr", "127.0.0.1:0"}, args...),
			func(addr string) { ready <- addr }, stop)
	}()
	select {
	case addr := <-ready:
		return addr, stop, done
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}
	panic("unreachable")
}

// rawSession opens a bare protocol-v2 session (no auth) so the test
// can observe individual frames.
func rawSession(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	pre := make([]byte, len(wire.Magic)+4)
	copy(pre, wire.Magic)
	binary.LittleEndian.PutUint32(pre[len(wire.Magic):], wire.Version)
	if _, err := conn.Write(pre); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := wire.ReadFrame(conn); err != nil || ft != wire.FrameHello {
		t.Fatalf("handshake: frame %v err %v", ft, err)
	}
	if err := wire.WriteFrame(conn, wire.FrameHello, nil); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := wire.ReadFrame(conn); err != nil || ft != wire.FrameDone {
		t.Fatalf("auth ack: frame %v err %v", ft, err)
	}
	return conn
}

func implCount(t *testing.T, store *relstore.Store) int {
	t.Helper()
	db, err := icdb.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	impls, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}
	return len(impls)
}

// TestGracefulShutdownSavesSnapshot: the stop path bootstraps a
// missing -db catalog, tells an idle session CodeShutdown (a decodable
// frame, not a reset), and persists session writes atomically.
func TestGracefulShutdownSavesSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.icdb")
	addr, stop, done := startDaemon(t, "-db", path, "-save")

	// A client write that must survive the shutdown.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("generate Counter size=24", nil); err != nil {
		t.Fatal(err)
	}

	idle := rawSession(t, addr)
	defer idle.Close()

	close(stop)
	ft, payload, err := wire.ReadFrame(idle)
	if err != nil || ft != wire.FrameError {
		t.Fatalf("idle session at shutdown: frame %v err %v, want a decodable Error", ft, err)
	}
	if len(payload) == 0 || wire.ErrCode(payload[0]) != wire.CodeShutdown {
		t.Fatalf("idle session Error payload %q, want code %s", payload, wire.CodeShutdown)
	}
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}

	saved, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{})
	if err != nil {
		t.Fatalf("saved catalog: %v", err)
	}
	seed := implCount(t, relstore.New())
	if got := implCount(t, saved); got != seed+1 {
		t.Fatalf("saved catalog has %d impls, want seed %d + 1 generated", got, seed)
	}
}

// TestSIGTERMGracefulShutdown: a real SIGTERM (not the test hook)
// drives the same graceful path and saves the catalog.
func TestSIGTERMGracefulShutdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.icdb")
	_, _, done := startDaemon(t, "-db", path, "-save")

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if _, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{}); err != nil {
		t.Fatalf("catalog not saved on SIGTERM: %v", err)
	}
}

// TestMissingCatalogWithoutSaveErrors: pointing -db at a file that
// does not exist without -save is a configuration mistake, not a
// silent empty catalog.
func TestMissingCatalogWithoutSaveErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.icdb")
	err := run([]string{"-db", path})
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing catalog without -save: err = %v", err)
	}
}

// TestUnreadableCatalogRefusedBeforeListen: a -db file in a snapshot
// version this build does not read, or a JSON catalog, stops the boot
// with the version- or format-naming error — in every -open mode, with
// and without -journal — before the listener binds, and the file (which
// the operator still needs for the export/import migration) is left
// exactly as it was, with no journal created next to it.
func TestUnreadableCatalogRefusedBeforeListen(t *testing.T) {
	v3 := binary.LittleEndian.AppendUint32([]byte("ICDBSNAP"), 3)
	v3 = append(v3, make([]byte, 64)...)
	for _, tc := range []struct {
		name string
		file []byte
		want []string
	}{
		{"v3 snapshot", v3, []string{"unsupported snapshot version 3 (this build reads version 4)"}},
		{"json catalog", []byte(`{"implementations": {"schema": {"Table": "implementations"}, "rows": []}}`), []string{"bad magic", "icdbq import"}},
	} {
		for _, args := range [][]string{{}, {"-open", "eager"}, {"-journal"}, {"-journal", "-open", "eager"}, {"-save"}} {
			path := filepath.Join(t.TempDir(), "catalog.icdb")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			args = append([]string{"-addr", "127.0.0.1:0", "-db", path}, args...)
			err := runServer(args, func(addr string) {
				t.Errorf("%s %v: listener bound on %s", tc.name, args, addr)
			}, nil)
			for _, want := range tc.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s %v: err = %v, want %q", tc.name, args, err, want)
				}
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.file) {
				t.Errorf("%s %v: catalog file was rewritten (%v)", tc.name, args, err)
			}
			if _, err := os.Stat(path + ".wal"); err == nil {
				t.Errorf("%s %v: a journal was created next to the refused catalog", tc.name, args)
			}
		}
	}
}

// TestSecretFromEnv: ICDBD_SECRET installs auth without putting the
// token on the command line; wrong tokens are rejected with CodeAuth.
func TestSecretFromEnv(t *testing.T) {
	t.Setenv("ICDBD_SECRET", "s3cret")
	addr, stop, done := startDaemon(t)
	defer func() {
		close(stop)
		<-done
	}()

	_, err := wire.DialOptions(addr, wire.Options{Secret: "wrong"})
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeAuth {
		t.Fatalf("wrong secret: err = %v, want RemoteError %s", err, wire.CodeAuth)
	}
	c, err := wire.DialOptions(addr, wire.Options{Secret: "s3cret"})
	if err != nil {
		t.Fatalf("right secret: %v", err)
	}
	defer c.Close()
	if n, err := c.Exec("show impls", nil); err != nil || n == 0 {
		t.Fatalf("authenticated exec: n=%d err=%v", n, err)
	}
}

// TestJournalDaemonLifecycle: -journal boots a fresh catalog, journals
// a client write, reports durability over "show server", compacts the
// journal into the snapshot at graceful shutdown, and a second boot
// recovers the write, re-seeds journal-silently, and leaves the
// snapshot byte-identical after its own shutdown.
func TestJournalDaemonLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.icdb")
	addr, stop, done := startDaemon(t, "-db", path, "-journal")

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("generate Counter size=24", nil); err != nil {
		t.Fatal(err)
	}
	var info strings.Builder
	if _, err := c.Exec("show server", func(line string) {
		info.WriteString(line + "\n")
	}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	for _, want := range []string{"durability:   journaled, fsync=always", "recovery:     clean (no snapshot"} {
		if !strings.Contains(info.String(), want) {
			t.Errorf("show server output missing %q:\n%s", want, info.String())
		}
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
	// Shutdown compacted: the snapshot holds everything, the journal is
	// header-only, and the next boot needs no replay.
	saved, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{})
	if err != nil {
		t.Fatalf("compacted catalog: %v", err)
	}
	seed := implCount(t, relstore.New())
	if got := implCount(t, saved); got != seed+1 {
		t.Fatalf("compacted catalog has %d impls, want seed %d + 1 generated", got, seed)
	}
	snap1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Second boot: nothing mutates, so shutdown's compaction is a no-op
	// and the snapshot is untouched — icdb.Open's re-seeding must be
	// journal-silent for this to hold.
	addr, stop, done = startDaemon(t, "-db", path, "-journal")
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c2.Exec("show impls", nil); err != nil || n == 0 {
		t.Fatalf("impls after recovery: n=%d err=%v", n, err)
	}
	c2.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("second daemon exit: %v", err)
	}
	snap2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("idle boot+shutdown rewrote the snapshot (re-seed not journal-silent or compaction not skipped)")
	}
}

// TestJournalDaemonRecoversTornTail: a daemon booted over a journal
// with a torn final record recovers the clean prefix and reports the
// truncation through "show server".
func TestJournalDaemonRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.icdb")
	// Build a journaled catalog directly, then tear the journal's tail.
	d, err := relstore.OpenDurable(path, relstore.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := icdb.Open(d.Store); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := path + ".wal"
	jdata, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, jdata[:len(jdata)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	addr, stop, done := startDaemon(t, "-db", path, "-journal")
	defer func() {
		close(stop)
		<-done
	}()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var info strings.Builder
	if _, err := c.Exec("show server", func(line string) {
		info.WriteString(line + "\n")
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.String(), "recovery:     truncated torn tail at offset") {
		t.Errorf("show server does not report the torn-tail recovery:\n%s", info.String())
	}
	if n, err := c.Exec("show impls", nil); err != nil || n == 0 {
		t.Fatalf("impls after torn-tail recovery: n=%d err=%v", n, err)
	}
}

// TestLazyOpenDaemon: the default -open lazy boots the catalog
// lazily — "show server" reports zero hydrated tables until a
// query touches one — while -open eager materializes everything up
// front. Both modes serve identical query results.
func TestLazyOpenDaemon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.icdb")
	s := relstore.New()
	if _, err := icdb.Open(s); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	showServer := func(c *wire.Client) string {
		t.Helper()
		var info strings.Builder
		if _, err := c.Exec("show server", func(line string) {
			info.WriteString(line + "\n")
		}); err != nil {
			t.Fatal(err)
		}
		return info.String()
	}

	addr, stop, done := startDaemon(t, "-db", path, "-save")
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Before any query touches a relation, every section is still an
	// undecoded stub: opening the catalog and asking "show server" must
	// not hydrate anything.
	if info := showServer(c); !strings.Contains(info, "open:         lazy, 0/") {
		t.Errorf("lazy boot hydrated early:\n%s", info)
	}
	if n, err := c.Exec("show impls", nil); err != nil || n == 0 {
		t.Fatalf("show impls under lazy open: n=%d err=%v", n, err)
	}
	info := showServer(c)
	if strings.Contains(info, "open:         lazy, 0/") {
		t.Errorf("query did not hydrate its relation:\n%s", info)
	}
	if !strings.Contains(info, "open:         lazy, ") {
		t.Errorf("show server lost the lazy open line:\n%s", info)
	}
	c.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("lazy daemon exit: %v", err)
	}

	// -open eager: fully materialized at boot, same answers.
	addr, stop, done = startDaemon(t, "-db", path, "-save", "-open", "eager")
	c, err = wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if info := showServer(c); !strings.Contains(info, "open:         eager (fully materialized)") {
		t.Errorf("eager boot not reported:\n%s", info)
	}
	if n, err := c.Exec("show impls", nil); err != nil || n == 0 {
		t.Fatalf("show impls under eager open: n=%d err=%v", n, err)
	}
	c.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("eager daemon exit: %v", err)
	}
}

// TestLazyOpenJournalDaemon: -journal defaults to lazy open too; a
// journaled write from a previous boot is deferred to hydration and
// still visible to the first query that touches its table.
func TestLazyOpenJournalDaemon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.icdb")
	// First boot: journal a write, then kill without compaction by
	// closing the Durable directly (simulating a crash leaves the WAL
	// uncovered by the snapshot).
	d, err := relstore.OpenDurable(path, relstore.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := icdb.Open(d.Store)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// A post-compaction mutation lands only in the journal.
	if _, _, err := db.Generate("gen_cnt", map[string]int{"size": 24}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	addr, stop, done := startDaemon(t, "-db", path, "-journal")
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	var info strings.Builder
	if _, err := c.Exec("show server", func(line string) {
		info.WriteString(line + "\n")
	}); err != nil {
		t.Fatal(err)
	}
	out := info.String()
	if !strings.Contains(out, "open:         lazy, 0/") {
		t.Errorf("journaled lazy boot hydrated early:\n%s", out)
	}
	if !strings.Contains(out, "deferred to hydration") && !strings.Contains(out, "deferred journal record(s) pending") {
		t.Errorf("show server does not report deferred journal records:\n%s", out)
	}
	if n, err := c.Exec("show impls", nil); err != nil || n == 0 {
		t.Fatalf("show impls under lazy journaled open: n=%d err=%v", n, err)
	}
	// Touching implementations hydrated that table and replayed its
	// deferred journal records — records aimed at untouched tables stay
	// pending (per-table deferral, not all-or-nothing).
	info.Reset()
	if _, err := c.Exec("show server", func(line string) {
		info.WriteString(line + "\n")
	}); err != nil {
		t.Fatal(err)
	}
	out = info.String()
	if strings.Contains(out, " 0 replayed") {
		t.Errorf("deferred journal records not replayed at hydration:\n%s", out)
	}
	if !strings.Contains(out, "open:         lazy, ") {
		t.Errorf("show server lost the lazy open line:\n%s", out)
	}
	c.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

// TestJournalFlagValidation: -journal's flag interactions fail fast
// with actionable errors.
func TestJournalFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-journal"}, "needs -db"},
		{[]string{"-journal", "-db", "x", "-save"}, "replaces -save"},
		{[]string{"-journal", "-db", "x", "-fsync", "sometimes"}, "-fsync must be"},
		{[]string{"-journal", "-db", "x", "-fsync", "-5s"}, "-fsync must be"},
		{[]string{"-db", "x", "-open", "sideways"}, "-open must be"},
		{[]string{"-db", "x", "-open", "auto"}, "-open must be lazy or eager"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestSaveSkipsUnchangedCatalog: a -save daemon that saw no mutations
// leaves the catalog file untouched instead of rewriting it.
func TestSaveSkipsUnchangedCatalog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.icdb")
	// First run creates the catalog (fresh file: always saved).
	_, stop, done := startDaemon(t, "-db", path, "-save")
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	old := time.Unix(1000000000, 0)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	// Idle run: read-only traffic only; shutdown must skip the save.
	addr, stop, done := startDaemon(t, "-db", path, "-save")
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("show impls", nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ModTime().Equal(old) {
		t.Error("idle -save run rewrote an unchanged catalog")
	}

	// A mutating run still saves.
	addr, stop, done = startDaemon(t, "-db", path, "-save")
	c, err = wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("generate Counter size=48", nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st, err = os.Stat(path); err != nil || st.ModTime().Equal(old) {
		t.Errorf("mutating -save run did not rewrite the catalog (stat %v, err %v)", st, err)
	}
}
