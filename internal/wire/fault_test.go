package wire

// Transport-torture suite: every mid-frame failure a hostile or
// unlucky network can produce, driven deterministically through the
// faultconn wrapper — split preambles, stalled handshakes, truncated
// and corrupted frames, mid-stream resets, cancel-vs-Done races, and
// quota exhaustion under load. CI runs these (plus TestSoak*) with
// -race -count=2 as the fault+soak job.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"icdb/internal/icdb"
	"icdb/internal/relstore"
	"icdb/internal/wire/faultconn"
)

// startServerOpts is startServer with server configuration (limits,
// secret, logging) applied before the listener starts.
func startServerOpts(t *testing.T, db *icdb.DB, cfg func(*Server)) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{DB: db}
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

// startPipeServerOpts is startPipeServer with server configuration.
func startPipeServerOpts(t *testing.T, db *icdb.DB, cfg func(*Server)) (*Server, *pipeListener) {
	t.Helper()
	ln := newPipeListener()
	srv := &Server{DB: db}
	if cfg != nil {
		cfg(srv)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln
}

// logRecorder captures Server.Logf lines for assertions.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRecorder) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// drainToError reads frames until an Error arrives (skipping Rows),
// returning its decoded v2 code and message. A Done first is fatal.
func drainToError(t *testing.T, conn net.Conn) (ErrCode, string) {
	t.Helper()
	for {
		ft, payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("draining to Error: %v", err)
		}
		switch ft {
		case FrameRow:
		case FrameError:
			code, msg := decodeError(payload)
			return code, msg
		default:
			t.Fatalf("draining to Error: unexpected %s frame", ft)
		}
	}
}

// drainToDone reads frames until Done, returning the row count.
func drainToDone(t *testing.T, conn net.Conn) int {
	t.Helper()
	rows := 0
	for {
		ft, payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("draining to Done after %d rows: %v", rows, err)
		}
		switch ft {
		case FrameRow:
			rows++
		case FrameDone:
			if n := doneCount(payload); n != rows {
				t.Fatalf("Done reports %d rows, received %d", n, rows)
			}
			return rows
		case FrameError:
			_, msg := decodeError(payload)
			t.Fatalf("draining to Done: Error %q after %d rows", msg, rows)
		}
	}
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultSplitPreambleHandshakes: a preamble trickling in across
// three short reads (split inside the magic and inside the version
// word) is normal TCP behavior and must handshake fine.
func TestFaultSplitPreambleHandshakes(t *testing.T) {
	db := openDB(t)
	_, ln := startPipeServerOpts(t, db, nil)
	fc := faultconn.New(ln.dial(t),
		faultconn.Fault{Op: faultconn.Write, At: 3, Kind: faultconn.Chop},
		faultconn.Fault{Op: faultconn.Write, At: 9, Kind: faultconn.Chop})
	defer fc.Close()

	rawHandshake(t, fc, "")
	if err := WriteFrame(fc, FrameCommand, []byte("show impls")); err != nil {
		t.Fatal(err)
	}
	if rows := drainToDone(t, fc); rows == 0 {
		t.Fatal("show impls over a chopped handshake returned no rows")
	}
}

// TestFaultPartialPreambleStallRejected: half a magic followed by
// silence must not hold a session slot forever — the handshake
// deadline expires, the rejection is logged, and the conn closes.
func TestFaultPartialPreambleStallRejected(t *testing.T) {
	db := openDB(t)
	logs := &logRecorder{}
	srv, ln := startPipeServerOpts(t, db, func(s *Server) {
		s.Limits.HandshakeTimeout = 50 * time.Millisecond
		s.Logf = logs.logf
	})
	fc := faultconn.New(ln.dial(t),
		faultconn.Fault{Op: faultconn.Write, At: 3, Kind: faultconn.Stall, Delay: 2 * time.Second})
	defer fc.Close()
	go writePreamble(fc, Version) // blocks in the stall; the tail write fails after close

	eventually(t, 5*time.Second, "handshake timeout log", func() bool {
		return logs.contains("handshake timeout")
	})
	if srv.Stats().Timeouts == 0 {
		t.Error("stalled handshake did not count as a timeout")
	}
	if srv.Stats().SessionsRejected == 0 {
		t.Error("stalled handshake did not count as a rejection")
	}
}

// TestFaultResetMidHandshake: a client vanishing halfway through the
// preamble is logged and the server keeps serving.
func TestFaultResetMidHandshake(t *testing.T) {
	db := openDB(t)
	srv, ln := startPipeServerOpts(t, db, nil)
	fc := faultconn.New(ln.dial(t),
		faultconn.Fault{Op: faultconn.Write, At: 5, Kind: faultconn.Reset})
	if err := writePreamble(fc, Version); err == nil {
		t.Fatal("write past an injected reset succeeded")
	}

	eventually(t, 5*time.Second, "session teardown", func() bool {
		return srv.Stats().SessionsActive == 0
	})
	conn := ln.dial(t)
	defer conn.Close()
	rawHandshake(t, conn, "")
}

// TestFaultTruncatedFrameMidCommand: a command frame whose payload is
// cut off by a reset ends that session (unexpected EOF) without
// disturbing the server.
func TestFaultTruncatedFrameMidCommand(t *testing.T) {
	db := openDB(t)
	srv, ln := startPipeServerOpts(t, db, nil)
	// Client write offsets: preamble 0..11, auth Hello header 12..16
	// (empty payload writes nothing), command header 17..21, payload
	// from 22. Reset three bytes into the ten-byte payload.
	fc := faultconn.New(ln.dial(t),
		faultconn.Fault{Op: faultconn.Write, At: 25, Kind: faultconn.Reset})
	rawHandshake(t, fc, "")
	if err := WriteFrame(fc, FrameCommand, []byte("show impls")); err == nil {
		t.Fatal("write past an injected reset succeeded")
	}

	eventually(t, 5*time.Second, "session teardown", func() bool {
		return srv.Stats().SessionsActive == 0
	})
	conn := ln.dial(t)
	defer conn.Close()
	rawHandshake(t, conn, "")
	if err := WriteFrame(conn, FrameCommand, []byte("show impls")); err != nil {
		t.Fatal(err)
	}
	if rows := drainToDone(t, conn); rows == 0 {
		t.Fatal("server unusable after a truncated frame")
	}
}

// TestFaultCorruptLengthPrefix: one flipped bit in a length prefix
// turns the frame into a multi-gigabyte claim; the server must refuse
// it (bounded at MaxFrame) and close only that session.
func TestFaultCorruptLengthPrefix(t *testing.T) {
	db := openDB(t)
	srv, ln := startPipeServerOpts(t, db, nil)
	// Offset 20 is the most significant byte of the command frame's
	// u32 length prefix (see TestFaultTruncatedFrameMidCommand's map).
	fc := faultconn.New(ln.dial(t),
		faultconn.Fault{Op: faultconn.Write, At: 20, Kind: faultconn.Corrupt})
	defer fc.Close()
	rawHandshake(t, fc, "")
	WriteFrame(fc, FrameCommand, []byte("show impls"))
	// The server drops the session without a reply (it cannot trust
	// the stream enough to frame one).
	if _, _, err := ReadFrame(fc); err == nil {
		t.Fatal("server answered a frame with a corrupt length prefix")
	}

	eventually(t, 5*time.Second, "session teardown", func() bool {
		return srv.Stats().SessionsActive == 0
	})
	conn := ln.dial(t)
	defer conn.Close()
	rawHandshake(t, conn, "")
}

// TestFaultCancelMidStreamSessionSurvives is the tentpole acceptance
// scenario for Cancel: a streamed find is aborted mid-flight by a
// Cancel frame, the abort is acknowledged with CodeCancelled, and the
// SAME session then runs another command normally.
func TestFaultCancelMidStreamSessionSurvives(t *testing.T) {
	db := openDB(t)
	addImplsSpanning(t, db)
	srv, ln := startPipeServerOpts(t, db, nil)
	conn := ln.dial(t)
	defer conn.Close()
	rawHandshake(t, conn, "")

	if err := WriteFrame(conn, FrameCommand, []byte("find component executing STORAGE")); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(conn); err != nil || ft != FrameRow {
		t.Fatalf("first row: frame %v err %v", ft, err)
	}
	if err := WriteFrame(conn, FrameCancel, nil); err != nil {
		t.Fatal(err)
	}
	code, msg := drainToError(t, conn)
	if code != CodeCancelled {
		t.Fatalf("cancel answered %s (%q), want %s", code, msg, CodeCancelled)
	}

	// The session survives the cancel: a fresh command completes.
	if err := WriteFrame(conn, FrameCommand, []byte("show session")); err != nil {
		t.Fatal(err)
	}
	if rows := drainToDone(t, conn); rows == 0 {
		t.Fatal("session dead after cancel")
	}
	if srv.Stats().Cancels != 1 {
		t.Errorf("cancels counter = %d, want 1", srv.Stats().Cancels)
	}
}

// TestFaultCancelVsDoneRace: a Cancel that loses the race — arriving
// after the command's Done — targets an idle generation and must be
// ignored, not poison the next command.
func TestFaultCancelVsDoneRace(t *testing.T) {
	db := openDB(t)
	srv, addr := startServerOpts(t, db, nil)
	c := dialT(t, addr)

	execLines(t, c, "show session")
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	// The late cancel is a no-op; the next command runs clean.
	if got := execLines(t, c, "show session"); len(got) == 0 {
		t.Fatal("session poisoned by a post-Done cancel")
	}
	if n := srv.Stats().Cancels; n != 0 {
		t.Errorf("idle cancel counted as aborting a command (cancels = %d)", n)
	}
}

// TestFaultExecContextCancel: context cancellation mid-stream sends a
// Cancel frame; Exec returns RemoteError CodeCancelled and the client
// session stays usable.
func TestFaultExecContextCancel(t *testing.T) {
	db := openDB(t)
	n := addImplsSpanning(t, db)
	srv, ln := startPipeServerOpts(t, db, nil)
	c, err := NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	_, err = c.ExecContext(ctx, "find component executing STORAGE", func(string) {
		rows++
		if rows == 1 {
			// Cancel, then hold the read loop until the Cancel frame
			// has landed server-side: on the synchronous pipe the find
			// is pinned mid-stream for exactly that long, so the abort
			// is deterministic, not a race against the stream draining.
			cancel()
			eventually(t, 5*time.Second, "cancel to land", func() bool {
				return srv.Stats().Cancels >= 1
			})
		}
	})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeCancelled {
		t.Fatalf("cancelled exec: err = %v, want RemoteError %s", err, CodeCancelled)
	}
	if rows >= n {
		t.Fatalf("cancel did not stop the stream (%d rows delivered)", rows)
	}
	if got := execLines(t, c, "show session"); len(got) == 0 {
		t.Fatal("client session dead after context cancel")
	}
}

// TestFaultRowQuotaMidStream: a streamed find crossing the session row
// quota is aborted mid-stream with CodeQuota and the session closes.
func TestFaultRowQuotaMidStream(t *testing.T) {
	db := openDB(t)
	addImpls(t, db, 200)
	srv, ln := startPipeServerOpts(t, db, func(s *Server) {
		s.Limits.MaxSessionRows = 25
	})
	c, err := NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Exec("find component executing STORAGE", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeQuota {
		t.Fatalf("quota exec: err = %v, want RemoteError %s", err, CodeQuota)
	}
	if !strings.Contains(re.Msg, "row quota (25)") {
		t.Fatalf("quota message: %q", re.Msg)
	}
	if rows != 25 {
		t.Fatalf("received %d rows before the quota error, want 25", rows)
	}
	if _, err := c.Exec("show session", nil); err == nil {
		t.Fatal("session survived a fatal quota error")
	}
	if srv.Stats().QuotaHits != 1 {
		t.Errorf("quota hits = %d, want 1", srv.Stats().QuotaHits)
	}
}

// TestFaultCommandQuota: the first command past the session command
// quota answers CodeQuota and the session closes.
func TestFaultCommandQuota(t *testing.T) {
	db := openDB(t)
	_, addr := startServerOpts(t, db, func(s *Server) {
		s.Limits.MaxSessionCommands = 2
	})
	c := dialT(t, addr)
	execLines(t, c, "show session")
	execLines(t, c, "show session")
	_, err := c.Exec("show session", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeQuota {
		t.Fatalf("third command: err = %v, want RemoteError %s", err, CodeQuota)
	}
	if !strings.Contains(re.Msg, "command quota (2)") {
		t.Fatalf("quota message: %q", re.Msg)
	}
	if _, err := c.Exec("show session", nil); err == nil {
		t.Fatal("session survived the command quota")
	}
}

// TestFaultIdleTimeout: a session that sits silent past the idle
// deadline is told CodeTimeout and closed — not reset, not leaked.
func TestFaultIdleTimeout(t *testing.T) {
	db := openDB(t)
	srv, ln := startPipeServerOpts(t, db, func(s *Server) {
		s.Limits.IdleTimeout = 60 * time.Millisecond
	})
	conn := ln.dial(t)
	defer conn.Close()
	rawHandshake(t, conn, "")

	ft, payload, err := ReadFrame(conn)
	if err != nil || ft != FrameError {
		t.Fatalf("idle session: frame %v err %v, want Error", ft, err)
	}
	code, msg := decodeError(payload)
	if code != CodeTimeout || !strings.Contains(msg, "idle timeout") {
		t.Fatalf("idle session: %s %q, want %s", code, msg, CodeTimeout)
	}
	if _, _, err := ReadFrame(conn); err == nil {
		t.Fatal("session open after idle timeout")
	}
	if srv.Stats().Timeouts == 0 {
		t.Error("idle timeout not counted")
	}
}

// TestFaultWriteTimeoutUnsticksStalledClient: a client that stops
// reading cannot park the serving goroutine — the write deadline
// expires, the timeout is counted and logged, the session unwinds, and
// the server keeps serving. The deadline can trip in either of the two
// places a reply reaches the socket: a buffer-full flush in the middle
// of a wide stream, or the flush that carries Done (where every reply
// smaller than the output buffer ends up).
func TestFaultWriteTimeoutUnsticksStalledClient(t *testing.T) {
	for _, tc := range []struct {
		name, cmd string
		atDone    bool
	}{
		{"mid-stream", "find component executing STORAGE", false},
		{"flush at Done", "find component executing STORAGE limit 20", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t)
			n := addImplsSpanning(t, db)
			logs := &logRecorder{}
			srv, ln := startPipeServerOpts(t, db, func(s *Server) {
				s.Limits.WriteTimeout = 80 * time.Millisecond
				s.Logf = logs.logf
			})
			stalled := stallingClient(t, ln, tc.cmd)
			defer stalled.Close()

			eventually(t, 5*time.Second, "write timeout", func() bool {
				return srv.Stats().Timeouts >= 1
			})
			eventually(t, 5*time.Second, "stalled session teardown", func() bool {
				return srv.Stats().SessionsActive == 0
			})
			if got := srv.Stats().Timeouts; got != 1 {
				t.Errorf("timeouts = %d, want 1", got)
			}
			if !logs.contains("write:") {
				t.Error("write timeout was not logged")
			}
			// Rows tallies at the end of each command: the small reply
			// was rendered whole and lost in its closing flush, the wide
			// one was cut short of the catalog.
			rows := int(srv.Stats().Rows)
			if tc.atDone && rows != 20 {
				t.Errorf("rows = %d, want 20 (timeout should have hit the flush carrying Done)", rows)
			}
			if !tc.atDone && (rows == 0 || rows >= n) {
				t.Errorf("rows = %d, want a strict part of %d (timeout should have hit mid-stream)", rows, n)
			}
			c, err := NewClient(ln.dial(t))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := execLines(t, c, "show impls"); len(got) == 0 {
				t.Fatal("server unusable after unsticking a stalled client")
			}
		})
	}
}

// TestFaultPipelineOverflow: more than one queued command behind an
// in-flight one is a protocol violation; the session is aborted with
// CodeProtocol, including the command mid-stream.
func TestFaultPipelineOverflow(t *testing.T) {
	db := openDB(t)
	addImplsSpanning(t, db)
	_, ln := startPipeServerOpts(t, db, nil)
	conn := ln.dial(t)
	defer conn.Close()
	rawHandshake(t, conn, "")

	if err := WriteFrame(conn, FrameCommand, []byte("find component executing STORAGE")); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(conn); err != nil || ft != FrameRow {
		t.Fatalf("first row: frame %v err %v", ft, err)
	}
	// One queued command is legal pipelining; the second overflows.
	if err := WriteFrame(conn, FrameCommand, []byte("show session")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, FrameCommand, []byte("show session")); err != nil {
		t.Fatal(err)
	}
	code, msg := drainToError(t, conn)
	if code != CodeProtocol || !strings.Contains(msg, "pipelined") {
		t.Fatalf("overflow answered %s %q, want %s", code, msg, CodeProtocol)
	}
	if _, _, err := ReadFrame(conn); err == nil {
		t.Fatal("session open after pipeline overflow")
	}
}

// TestFaultAuth: the shared-secret handshake — right secret in, wrong
// secret rejected with CodeAuth, all in constant-time compares.
func TestFaultAuth(t *testing.T) {
	db := openDB(t)
	srv, addr := startServerOpts(t, db, func(s *Server) {
		s.Secret = "hunter2"
	})

	c, err := DialOptions(addr, Options{Secret: "hunter2"})
	if err != nil {
		t.Fatalf("correct secret: %v", err)
	}
	defer c.Close()
	if got := execLines(t, c, "show impls"); len(got) == 0 {
		t.Fatal("authenticated session returned no rows")
	}

	_, err = DialOptions(addr, Options{Secret: "wrong"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeAuth {
		t.Fatalf("wrong secret: err = %v, want RemoteError %s", err, CodeAuth)
	}

	if n := srv.Stats().AuthFailures; n != 1 {
		t.Errorf("auth failures = %d, want 1", n)
	}
}

// TestFaultServerHelloOtherVersionFailsDial: a client against a server
// that answers the preamble with Hello(1) fails the dial — it neither
// downgrades nor retries with another version.
func TestFaultServerHelloOtherVersionFailsDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan int, 1)
	go func() {
		n := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				accepted <- n
				return
			}
			n++
			if _, err := readPreamble(conn); err == nil {
				WriteFrame(conn, FrameHello, u32(1))
			}
			// Whatever the client sends next, a v1 server would treat it
			// as a command; all that matters is that the dial has failed.
			io.Copy(io.Discard, conn)
			conn.Close()
		}
	}()
	c, err := DialOptions(ln.Addr().String(), Options{Retry: Backoff{Attempts: 3, Base: time.Millisecond}})
	if err == nil {
		c.Close()
		t.Fatal("dial against a Hello(1) server succeeded")
	}
	if !strings.Contains(err.Error(), "server speaks protocol version 1") {
		t.Fatalf("dial error = %v, want the server's version named", err)
	}
	ln.Close()
	if n := <-accepted; n != 3 {
		// A version mismatch is a transport-class failure of this dial
		// (no RemoteError), so the retry policy runs; every attempt must
		// announce v2 again and fail the same way.
		t.Fatalf("fake server saw %d connection(s), want 3", n)
	}
}

// TestFaultMaxConns: a connection over the cap is rejected gracefully
// with a decodable Error frame, and capacity frees when a session ends.
func TestFaultMaxConns(t *testing.T) {
	db := openDB(t)
	srv, addr := startServerOpts(t, db, func(s *Server) {
		s.Limits.MaxConns = 1
	})
	c1 := dialT(t, addr)
	execLines(t, c1, "show session")

	_, err := Dial(addr)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "connection limit (1)") {
		t.Fatalf("over-cap dial: err = %v, want graceful RemoteError", err)
	}
	if srv.Stats().SessionsRejected == 0 {
		t.Error("rejected connection not counted")
	}

	c1.Close()
	eventually(t, 5*time.Second, "capacity to free", func() bool {
		c, err := Dial(addr)
		if err != nil {
			return false
		}
		c.Close()
		return true
	})
}

// TestFaultDialRetryBackoff: transport failures during dial are
// retried with backoff; the client connects once the server recovers.
func TestFaultDialRetryBackoff(t *testing.T) {
	db := openDB(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{DB: db}
	t.Cleanup(func() { srv.Close() })
	go func() {
		// A flaky spell: the first two connections die before the
		// handshake, then the real server takes over the listener.
		for i := 0; i < 2; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
		srv.Serve(ln)
	}()

	c, err := DialOptions(ln.Addr().String(), Options{
		Retry: Backoff{Attempts: 6, Base: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("dial with retry: %v", err)
	}
	defer c.Close()
	if got := execLines(t, c, "show impls"); len(got) == 0 {
		t.Fatal("recovered session returned no rows")
	}
}

// TestFaultNoRetryOnRemoteError: a server that answered and said no
// (bad auth) is not hammered with retries.
func TestFaultNoRetryOnRemoteError(t *testing.T) {
	db := openDB(t)
	srv, addr := startServerOpts(t, db, func(s *Server) {
		s.Secret = "hunter2"
	})
	_, err := DialOptions(addr, Options{
		Secret: "wrong",
		Retry:  Backoff{Attempts: 5, Base: time.Millisecond},
	})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeAuth {
		t.Fatalf("err = %v, want RemoteError %s", err, CodeAuth)
	}
	if n := srv.Stats().AuthFailures; n != 1 {
		t.Errorf("auth failures = %d, want 1 (RemoteError must not be retried)", n)
	}
}

// TestFaultShutdownGraceful: Shutdown aborts the in-flight command
// through the sink-error path and tells idle sessions too — every
// client sees a decodable CodeShutdown Error, not a raw TCP reset.
func TestFaultShutdownGraceful(t *testing.T) {
	db := openDB(t)
	addImplsSpanning(t, db)
	// The pipe transport keeps the streamed find pinned mid-flight
	// (the server is blocked writing its first full buffer) so the
	// shutdown deterministically aborts it; TCP buffers would let the
	// command finish first.
	srv, ln := startPipeServerOpts(t, db, nil)

	idle := ln.dial(t)
	defer idle.Close()
	rawHandshake(t, idle, "")

	streaming := ln.dial(t)
	defer streaming.Close()
	rawHandshake(t, streaming, "")
	if err := WriteFrame(streaming, FrameCommand, []byte("find component executing STORAGE")); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(streaming); err != nil || ft != FrameRow {
		t.Fatalf("first row: frame %v err %v", ft, err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(5 * time.Second) }()
	eventually(t, 5*time.Second, "shutdown to begin", func() bool {
		return srv.closedFlag.Load()
	})

	code, msg := drainToError(t, streaming)
	if code != CodeShutdown {
		t.Fatalf("in-flight command got %s (%q), want %s", code, msg, CodeShutdown)
	}
	ft, payload, err := ReadFrame(idle)
	if err != nil || ft != FrameError {
		t.Fatalf("idle session: frame %v err %v, want Error", ft, err)
	}
	if code, _ := decodeError(payload); code != CodeShutdown {
		t.Fatalf("idle session got %s, want %s", code, CodeShutdown)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShowServerEndToEnd: the operator's "show server" verb over the
// wire reports protocol, counters, auth state, and limits.
func TestShowServerEndToEnd(t *testing.T) {
	db := openDB(t)
	_, addr := startServerOpts(t, db, func(s *Server) {
		s.Secret = "hunter2"
		s.Limits.MaxSessionRows = 1000
		s.Limits.IdleTimeout = time.Minute
	})
	c, err := DialOptions(addr, Options{Secret: "hunter2"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	execLines(t, c, "show impls") // bump the counters

	info := strings.Join(execLines(t, c, "show server"), "\n")
	for _, want := range []string{
		"protocol:     v2",
		"sessions:     1 active",
		"auth:         on",
		"session_rows=1000",
		"idle=1m0s",
		"max_conns=off",
		"durability:   snapshot-only (no journal)",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("show server output missing %q:\n%s", want, info)
		}
	}
}

// TestShowServerJournalDurability: with the Durability hook installed
// (as icdbd -journal does), "show server" reports the journal state
// and recovery outcome.
func TestShowServerJournalDurability(t *testing.T) {
	db := openDB(t)
	durability := func() relstore.DurabilityInfo {
		return relstore.DurabilityInfo{
			JournalPath:  "cat.snap.wal",
			Policy:       "always",
			JournalBytes: 4096,
			Records:      7,
			Compactions:  2,
			Recovery:     relstore.RecoveryInfo{SnapshotLoaded: true, Replayed: 7, Truncated: true, TruncatedAt: 4096},
		}
	}
	_, addr := startServerOpts(t, db, func(s *Server) { s.Durability = durability })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info := strings.Join(execLines(t, c, "show server"), "\n")
	for _, want := range []string{
		"durability:   journaled, fsync=always, 4096 byte(s) / 7 record(s) since last compaction, 2 compaction(s)",
		"recovery:     truncated torn tail at offset 4096 (snapshot + 7 journal record(s))",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("show server output missing %q:\n%s", want, info)
		}
	}
}

// TestSoakMixedTraffic hammers one server with four client
// personalities at once — healthy, cancelling, quota-exceeding, and
// garbage-writing — and checks no one blocks anyone else and the
// server finishes consistent. CI runs this under -race.
func TestSoakMixedTraffic(t *testing.T) {
	db := openDB(t)
	addImpls(t, db, 300)
	srv, addr := startServerOpts(t, db, func(s *Server) {
		s.Limits.MaxSessionRows = 150
		s.Limits.MaxSessionCommands = 100
		s.Limits.WriteTimeout = 2 * time.Second
	})

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0: // healthy: bounded finds in a steady loop
				c, err := DialOptions(addr, Options{Retry: Backoff{Attempts: 3, Base: 2 * time.Millisecond}})
				if err != nil {
					t.Errorf("healthy %d: %v", i, err)
					return
				}
				defer c.Close()
				for r := 0; r < 15; r++ {
					if _, err := c.Exec("find component executing STORAGE order by cost limit 3", nil); err != nil {
						t.Errorf("healthy %d round %d: %v", i, r, err)
						return
					}
				}
			case 1: // canceller: aborts streams mid-flight
				for r := 0; r < 5; r++ {
					c, err := Dial(addr)
					if err != nil {
						t.Errorf("canceller %d: %v", i, err)
						return
					}
					ctx, cancel := context.WithCancel(context.Background())
					rows := 0
					_, err = c.ExecContext(ctx, "find component executing STORAGE limit 100", func(string) {
						rows++
						if rows == 2 {
							cancel()
						}
					})
					cancel()
					var re *RemoteError
					if err != nil && !errors.As(err, &re) {
						t.Errorf("canceller %d round %d: transport error %v", i, r, err)
					}
					c.Close()
				}
			case 2: // quota hog: unbounded finds until the row quota trips
				for r := 0; r < 3; r++ {
					c, err := Dial(addr)
					if err != nil {
						t.Errorf("hog %d: %v", i, err)
						return
					}
					_, err = c.Exec("find component executing STORAGE", nil)
					var re *RemoteError
					if !errors.As(err, &re) || re.Code != CodeQuota {
						t.Errorf("hog %d round %d: err = %v, want %s", i, r, err, CodeQuota)
					}
					c.Close()
				}
			case 3: // garbage: wrong magic and half-handshakes
				for r := 0; r < 5; r++ {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Errorf("garbage %d: %v", i, err)
						return
					}
					if r%2 == 0 {
						conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
					} else {
						conn.Write([]byte(Magic[:4]))
					}
					conn.Close()
				}
			}
		}(i)
	}
	wg.Wait()

	// The server survived: a fresh session still answers, and the
	// counters reflect the abuse.
	c := dialT(t, addr)
	if got := execLines(t, c, "find component executing STORAGE order by cost limit 3"); len(got) == 0 {
		t.Fatal("server returned no rows after the soak")
	}
	st := srv.Stats()
	if st.QuotaHits < 9 {
		t.Errorf("quota hits = %d, want >= 9 (3 hogs x 3 rounds)", st.QuotaHits)
	}
	if st.SessionsRejected < 15 {
		t.Errorf("rejected = %d, want >= 15 (garbage dials)", st.SessionsRejected)
	}
	if st.SessionsTotal < 12 {
		t.Errorf("sessions total = %d, want >= 12", st.SessionsTotal)
	}
}
