package wire

import (
	"bufio"
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"icdb/internal/cql"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

// Limits bounds what one client — or all of them together — may cost
// the server. The zero value means "unlimited" for every field, which
// keeps the embedded test servers and the pre-PR 7 behavior unchanged;
// cmd/icdbd installs production defaults via flags. Every violation is
// answered with a typed Error frame (CodeQuota, CodeTimeout, ...)
// before the session is closed, never a raw TCP reset.
type Limits struct {
	// MaxConns caps concurrent sessions (counting handshakes in
	// flight). A connection over the cap is answered with a plain
	// Error frame at the handshake and closed — graceful rejection,
	// not accept-loop failure.
	MaxConns int
	// MaxSessionCommands caps the commands one session may run; the
	// first command past the quota gets Error CodeQuota and the
	// session closes.
	MaxSessionCommands int
	// MaxSessionRows caps the total Row frames one session may
	// receive; a streamed find that crosses the quota is aborted
	// mid-stream with Error CodeQuota and the session closes.
	MaxSessionRows int
	// IdleTimeout bounds how long a session may sit between commands
	// (it also bounds a client that stalls mid-frame, since the server
	// is idle-waiting for the frame to complete). Expiry answers
	// Error CodeTimeout and closes the session.
	IdleTimeout time.Duration
	// WriteTimeout bounds every socket write (one per coalesced burst
	// of reply frames, see session), so a client that stops reading
	// mid-stream cannot park the serving goroutine forever: the flush
	// fails and the command unwinds through the engine's sink-error
	// path.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the whole preamble/Hello/auth exchange;
	// a client that trickles half a magic and stalls is logged and
	// rejected instead of holding a session slot.
	HandshakeTimeout time.Duration
}

// Stats is a snapshot of the server's operation counters, exposed to
// operators through the CQL "show server" verb. Rows counts the Row
// frames of finished commands: each command adds its rows once, as its
// Done or Error is written, so the figure is exact at command
// boundaries and leaves out commands still streaming.
type Stats struct {
	SessionsActive   int64
	SessionsTotal    int64
	SessionsRejected int64
	Commands         int64
	Rows             int64
	Errors           int64
	Cancels          int64
	QuotaHits        int64
	Timeouts         int64
	AuthFailures     int64
}

// Server serves the ICDB wire protocol: one goroutine per connection,
// one cql.Env — and therefore one CQL session (current width, weight
// overrides, expander reuse) — per connection. Commands on a connection
// run sequentially; commands on different connections run concurrently
// against the shared DB, whose snapshot-isolated reads keep a slow
// client's streamed find from blocking anyone else's writes. Limits
// and Secret bound what a misbehaving client can cost; both default to
// fully open.
type Server struct {
	// DB is the shared component database; it must be non-nil.
	DB *icdb.DB
	// ReadFile, when non-nil, lets sessions run "expand <file>"; it
	// receives the client-supplied path and is responsible for
	// restricting it (cmd/icdbd confines it to a -designs directory).
	// Nil disables expand, the safe default for a network server.
	ReadFile func(path string) ([]byte, error)
	// Logf, when non-nil, receives per-connection lifecycle lines.
	Logf func(format string, args ...any)
	// Limits bounds per-session and server-wide resource use; the
	// zero value is unlimited.
	Limits Limits
	// Secret, when non-empty, requires every session to present the
	// same token in its auth Hello; the comparison is constant-time
	// and unauthenticated connections are rejected before any command
	// runs.
	Secret string
	// Durability, when non-nil, reports the backing store's journal
	// state for "show server" (cmd/icdbd wires it to the Durable
	// store's Info when running with -journal). Nil means the catalog
	// is snapshot-only.
	Durability func() relstore.DurabilityInfo
	// Hydration, when non-nil, reports the backing store's snapshot
	// open mode and lazy-hydration counters for "show server"
	// (cmd/icdbd wires it to the store's LazyInfo). Nil hides the
	// "open:" line entirely (e.g. a store not backed by a snapshot).
	Hydration func() relstore.LazyInfo

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	closing chan struct{} // closed on Shutdown; wakes idle sessions
	wg      sync.WaitGroup

	// closedFlag mirrors closed for the per-row abort check in
	// lineWriter, which must not take the server mutex.
	closedFlag atomic.Bool

	// now, when non-nil, replaces the monotonic clock the flush interval
	// is measured on (tests).
	now func() time.Duration

	stats struct {
		sessionsActive   atomic.Int64
		sessionsTotal    atomic.Int64
		sessionsRejected atomic.Int64
		commands         atomic.Int64
		rows             atomic.Int64
		errors           atomic.Int64
		cancels          atomic.Int64
		quotaHits        atomic.Int64
		timeouts         atomic.Int64
		authFailures     atomic.Int64
	}
}

// Stats snapshots the server's operation counters.
func (s *Server) Stats() Stats {
	return Stats{
		SessionsActive:   s.stats.sessionsActive.Load(),
		SessionsTotal:    s.stats.sessionsTotal.Load(),
		SessionsRejected: s.stats.sessionsRejected.Load(),
		Commands:         s.stats.commands.Load(),
		Rows:             s.stats.rows.Load(),
		Errors:           s.stats.errors.Load(),
		Cancels:          s.stats.cancels.Load(),
		QuotaHits:        s.stats.quotaHits.Load(),
		Timeouts:         s.stats.timeouts.Load(),
		AuthFailures:     s.stats.authFailures.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// closingChan lazily creates the shutdown broadcast channel so sessions
// can select on it whether or not Shutdown ever runs.
func (s *Server) closingChan() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing == nil {
		s.closing = make(chan struct{})
	}
	return s.closing
}

// Serve accepts connections on ln until Close/Shutdown (or a fatal
// listener error) and blocks until every connection handler has
// returned. The listener is owned by the server from this point:
// Close closes it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("wire: server is closed")
	}
	s.ln = ln
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()

	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				err = aerr
			}
			break
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			break
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
	s.wg.Wait()
	return err
}

// Shutdown stops the server gracefully: the listener closes, every
// in-flight command is aborted through the engine's sink-error path
// with Error CodeShutdown, idle sessions are told the same, and the
// call waits up to grace for handlers to unwind before hard-closing
// whatever remains (a session parked in a write to a stalled client,
// for instance). In-flight clients therefore see a decodable
// Done/Error, not a raw TCP reset.
func (s *Server) Shutdown(grace time.Duration) error {
	closing := s.closingChan()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.closedFlag.Store(true)
	ln := s.ln
	s.mu.Unlock()
	close(closing)
	var err error
	if ln != nil {
		err = ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var graceC <-chan time.Time
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		graceC = t.C
	} else {
		c := make(chan time.Time, 1)
		c <- time.Time{}
		graceC = c
	}
	select {
	case <-done:
	case <-graceC:
		s.mu.Lock()
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		<-done
	}
	return err
}

// Close stops accepting and tears every live connection down
// immediately (Shutdown with no grace period). A mid-stream command on
// a closed connection fails its socket write and unwinds through the
// engine's visitor stop-path, leaving the store consistent.
func (s *Server) Close() error { return s.Shutdown(0) }

// sessionErr is a server-side abort of one command or session: it
// travels through the cql.Env sink (lineWriter) as a write error, so
// the engine stops yielding promptly, and the handler answers with the
// typed Error frame it carries. fatal closes the session after the
// reply; non-fatal (cancel) leaves it usable.
type sessionErr struct {
	code  ErrCode
	msg   string
	fatal bool
}

func (e *sessionErr) Error() string { return e.msg }

// The reply path coalesces: a session's reply frames collect in one
// fixed-size buffer and leave in one socket write per burst, not one
// per row. The buffer goes out when it is full, when a row is emitted
// more than flushInterval after the command started or last wrote to
// the socket, and always with the Done or Error that ends a reply. So a
// small reply costs one write, a wide one about bytes/flushBufSize, and
// a producer slower than the interval still streams row by row. The
// byte stream is the same in every case: one Row frame per line.
const (
	// flushBufSize is each session's output buffer, and the size of the
	// reader a Client puts in front of its socket to take a burst in one
	// read.
	flushBufSize = 32 << 10
	// flushInterval bounds how long a buffered row waits for company:
	// the first row emitted this long after the last socket write takes
	// the buffer with it.
	flushInterval = time.Millisecond
)

var clockBase = time.Now()

// clock reads the monotonic clock flushInterval is measured on.
func (s *Server) clock() time.Duration {
	if s.now != nil {
		return s.now()
	}
	return time.Since(clockBase)
}

// session is the per-connection state shared between the handler
// goroutine (which executes commands) and the reader goroutine (which
// keeps draining frames mid-command so Cancel can land).
type session struct {
	srv  *Server
	conn net.Conn

	// out buffers reply frames ahead of the socket; flushed is the clock
	// reading when the in-flight command started or out last reached the
	// socket, whichever is later (handler goroutine only).
	out     *bufio.Writer
	flushed time.Duration

	// gen is the generation of the in-flight command, 0 when idle.
	// A Cancel frame targets the generation in flight when it is
	// read; a cancel landing between commands (the cancel-vs-Done
	// race) targets generation 0 and is ignored.
	gen       atomic.Int64
	cancelGen atomic.Int64
	// abort, once set, fatally ends the session at its next sink
	// write (pipeline overflow; server shutdown uses closedFlag).
	abort atomic.Pointer[sessionErr]

	inbox     chan string // commands from the reader; cap 1 = max pipeline
	readerErr chan error  // terminal reader failure (EOF, bad frame, overflow)

	rows int // session total of streamed rows (handler goroutine only)
	cmds int // session total of commands (handler goroutine only)
}

func newSession(srv *Server, conn net.Conn) *session {
	s := &session{
		srv:       srv,
		conn:      conn,
		inbox:     make(chan string, 1),
		readerErr: make(chan error, 1),
	}
	s.out = bufio.NewWriterSize(sockWriter{s}, flushBufSize)
	return s
}

// aborted reports the sessionErr the in-flight command (generation gen)
// must unwind with, or nil. Called from lineWriter on every write, so
// it is lock-free: two atomic loads and a flag.
func (s *session) aborted(gen int64) *sessionErr {
	if s.srv.closedFlag.Load() {
		return &sessionErr{code: CodeShutdown, msg: "server shutting down", fatal: true}
	}
	if se := s.abort.Load(); se != nil {
		return se
	}
	if gen != 0 && s.cancelGen.Load() == gen {
		return &sessionErr{code: CodeCancelled, msg: "command cancelled", fatal: false}
	}
	return nil
}

// sockWriter is the only way reply bytes reach a session's socket: it
// arms the server's write deadline ahead of every socket write — once
// per burst, never per row — so a client that stops reading cannot park
// the handler forever.
type sockWriter struct{ s *session }

func (w sockWriter) Write(p []byte) (int, error) {
	s := w.s
	if d := s.srv.Limits.WriteTimeout; d > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(d))
	}
	n, err := s.conn.Write(p)
	s.flushed = s.srv.clock()
	return n, err
}

// frame adds one frame to the output buffer, in place when it fits
// (bufio's AvailableBuffer idiom: no header allocation, no second
// copy). A full buffer spills to the socket as it goes.
func (s *session) frame(t FrameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return frameTooBig(t, len(payload))
	}
	_, err := s.out.Write(appendFrame(s.out.AvailableBuffer(), t, payload))
	return err
}

// reply ends a reply: the closing frame joins the rows still buffered
// and the burst goes out in one socket write. A failure is counted and
// logged; the session is over.
func (s *session) reply(t FrameType, payload []byte) bool {
	err := s.frame(t, payload)
	if err == nil {
		err = s.out.Flush()
	}
	if err != nil {
		s.writeFailed(err)
	}
	return err == nil
}

// writeFailed accounts for a reply the socket refused: the client is
// gone, or stopped reading for longer than the write deadline.
func (s *session) writeFailed(err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		s.srv.stats.timeouts.Add(1)
	}
	s.srv.logf("wire: %s: write: %v", s.conn.RemoteAddr(), err)
}

// readLoop drains frames off the connection for the session's
// lifetime: Commands queue for the handler (at most one while another
// is in flight — more is a protocol violation that aborts the
// session), Cancels mark the in-flight command, anything else is a
// protocol error. It exits by reporting the terminal error on
// readerErr; the handler owns the reply.
func (s *session) readLoop(br *bufio.Reader) {
	for {
		t, payload, err := ReadFrame(br)
		if err != nil {
			s.readerErr <- err
			return
		}
		switch t {
		case FrameCommand:
			select {
			case s.inbox <- string(payload):
			default:
				s.abort.CompareAndSwap(nil, &sessionErr{
					code:  CodeProtocol,
					msg:   "pipelined command limit exceeded (one queued command per session)",
					fatal: true,
				})
				s.readerErr <- errPipelineOverflow
				return
			}
		case FrameCancel:
			if g := s.gen.Load(); g != 0 {
				s.cancelGen.Store(g)
				s.srv.stats.cancels.Add(1)
			}
		default:
			s.readerErr <- fmt.Errorf("wire: unexpected %s frame", t)
			return
		}
	}
}

var errPipelineOverflow = errors.New("wire: pipelined command limit exceeded")

// serveConn runs one connection: limit check, handshake (with optional
// auth), then a command loop until the client hangs up, a limit trips,
// or the server shuts down.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.stats.sessionsTotal.Add(1)
	active := s.stats.sessionsActive.Add(1)
	defer s.stats.sessionsActive.Add(-1)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	if d := s.Limits.HandshakeTimeout; d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}

	// Connection limit: graceful rejection with a decodable frame, not
	// accept-loop backpressure collapse. The reply predates the Hello,
	// so it uses the plain-text (frozen-contract) Error payload every
	// client version can decode.
	if max := s.Limits.MaxConns; max > 0 && active > int64(max) {
		s.stats.sessionsRejected.Add(1)
		s.stats.quotaHits.Add(1)
		WriteFrame(bw, FrameError, fmt.Appendf(nil, "server connection limit (%d) reached, try again later", max))
		bw.Flush()
		s.logf("wire: %s: rejected: connection limit %d", conn.RemoteAddr(), max)
		return
	}

	v, err := readPreamble(br)
	if err != nil {
		s.stats.sessionsRejected.Add(1)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.stats.timeouts.Add(1)
			s.logf("wire: %s: rejected: handshake timeout (partial or stalled preamble): %v", conn.RemoteAddr(), err)
		} else {
			s.logf("wire: %s: handshake: %v", conn.RemoteAddr(), err)
		}
		return
	}
	if v != Version {
		// Answer with a versioned rejection, then hang up: the client
		// knows the handshake format whatever protocol it speaks.
		WriteFrame(bw, FrameError, fmt.Appendf(nil, "unsupported protocol version %d (server speaks %d)", v, Version))
		bw.Flush()
		s.stats.sessionsRejected.Add(1)
		s.logf("wire: %s: rejected version %d", conn.RemoteAddr(), v)
		return
	}
	if err := WriteFrame(bw, FrameHello, u32(Version)); err != nil || bw.Flush() != nil {
		return
	}
	// Auth exchange: the client's Hello carries its token; the session
	// starts only after Done acknowledges it.
	t, token, err := ReadFrame(br)
	if err != nil || t != FrameHello {
		s.stats.sessionsRejected.Add(1)
		if err == nil {
			WriteFrame(bw, FrameError, codedError(CodeProtocol, fmt.Sprintf("expected auth Hello, got %s", t)))
			bw.Flush()
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			s.stats.timeouts.Add(1)
		}
		s.logf("wire: %s: rejected: auth hello: frame %v err %v", conn.RemoteAddr(), t, err)
		return
	}
	if s.Secret != "" && subtle.ConstantTimeCompare(token, []byte(s.Secret)) != 1 {
		s.stats.sessionsRejected.Add(1)
		s.stats.authFailures.Add(1)
		WriteFrame(bw, FrameError, codedError(CodeAuth, "authentication failed"))
		bw.Flush()
		s.logf("wire: %s: rejected: authentication failed", conn.RemoteAddr())
		return
	}
	if err := WriteFrame(bw, FrameDone, u32(0)); err != nil || bw.Flush() != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	s.logf("wire: %s: session open", conn.RemoteAddr())

	sess := newSession(s, conn)
	// One Env per connection: the session state the set command adjusts
	// (width, weights) and the expander's template reuse are confined to
	// this client.
	lw := &lineWriter{sess: sess}
	env := &cql.Env{DB: s.DB, Out: lw, ReadFile: s.ReadFile, ServerInfo: s.serverInfo}
	go sess.readLoop(br)
	closing := s.closingChan()

	gen := int64(0)
	for {
		var idleC <-chan time.Time
		var idleT *time.Timer
		if d := s.Limits.IdleTimeout; d > 0 {
			idleT = time.NewTimer(d)
			idleC = idleT.C
		}
		select {
		case cmd := <-sess.inbox:
			if idleT != nil {
				idleT.Stop()
			}
			gen++
			if !s.runCommand(sess, env, lw, cmd, gen) {
				return
			}
		case err := <-sess.readerErr:
			if idleT != nil {
				idleT.Stop()
			}
			// A command may have been queued before the reader died
			// (a client that writes its last command and half-closes):
			// serve it before acting on the failure.
			select {
			case cmd := <-sess.inbox:
				gen++
				if !s.runCommand(sess, env, lw, cmd, gen) {
					return
				}
			default:
			}
			if errors.Is(err, errPipelineOverflow) {
				s.replyErr(sess, CodeProtocol, "pipelined command limit exceeded (one queued command per session)")
			}
			s.logf("wire: %s: session end: %v", conn.RemoteAddr(), err)
			return
		case <-idleC:
			s.stats.timeouts.Add(1)
			s.replyErr(sess, CodeTimeout, fmt.Sprintf("idle timeout (%s)", s.Limits.IdleTimeout))
			s.logf("wire: %s: session end: idle timeout", conn.RemoteAddr())
			return
		case <-closing:
			s.replyErr(sess, CodeShutdown, "server shutting down")
			s.logf("wire: %s: session end: server shutdown", conn.RemoteAddr())
			return
		}
	}
}

// runCommand executes one command and writes its reply, returning
// whether the session should continue.
func (s *Server) runCommand(sess *session, env *cql.Env, lw *lineWriter, cmd string, gen int64) bool {
	sess.cmds++
	if max := s.Limits.MaxSessionCommands; max > 0 && sess.cmds > max {
		s.stats.quotaHits.Add(1)
		s.replyErr(sess, CodeQuota, fmt.Sprintf("session command quota (%d) exhausted", max))
		s.logf("wire: %s: session end: command quota", sess.conn.RemoteAddr())
		return false
	}
	s.stats.commands.Add(1)
	sess.gen.Store(gen)
	lw.reset(gen)
	execErr := env.Exec(cmd)
	sess.gen.Store(0)
	werr := lw.finish()
	s.stats.rows.Add(int64(lw.rows))
	if werr != nil {
		var se *sessionErr
		if errors.As(werr, &se) {
			ok := s.replyErr(sess, se.code, se.msg)
			if se.fatal {
				s.logf("wire: %s: session end: %s: %s", sess.conn.RemoteAddr(), se.code, se.msg)
				return false
			}
			return ok
		}
		// The client is gone (or stopped reading past the write
		// deadline) mid-stream; nothing left to tell it.
		sess.writeFailed(werr)
		return false
	}
	if execErr != nil {
		s.stats.errors.Add(1)
		return s.replyErr(sess, CodeGeneric, execErr.Error())
	}
	return sess.reply(FrameDone, u32(uint32(lw.rows)))
}

// replyErr ends a reply with one coded Error frame, reporting whether it
// was written.
func (s *Server) replyErr(sess *session, code ErrCode, msg string) bool {
	return sess.reply(FrameError, codedError(code, msg))
}

// serverInfo renders the operator view behind the CQL "show server"
// verb: protocol version, live counters, auth state, limits, and the
// frontier cache's hit/delta/rebuild counts. The
// "rows:" figure is Stats.Rows: exact at command boundaries, without
// the rows of commands still streaming (this one included).
func (s *Server) serverInfo(w io.Writer) error {
	st := s.Stats()
	fmt.Fprintf(w, "protocol:     v%d\n", Version)
	fmt.Fprintf(w, "sessions:     %d active, %d total, %d rejected\n",
		st.SessionsActive, st.SessionsTotal, st.SessionsRejected)
	fmt.Fprintf(w, "commands:     %d (%d errors, %d cancelled)\n", st.Commands, st.Errors, st.Cancels)
	fmt.Fprintf(w, "rows:         %d\n", st.Rows)
	fmt.Fprintf(w, "quota hits:   %d\n", st.QuotaHits)
	fmt.Fprintf(w, "timeouts:     %d\n", st.Timeouts)
	if s.Secret != "" {
		fmt.Fprintf(w, "auth:         on (%d failures)\n", st.AuthFailures)
	} else {
		fmt.Fprintln(w, "auth:         off")
	}
	l := s.Limits
	fmt.Fprintf(w, "limits:       max_conns=%s session_commands=%s session_rows=%s idle=%s write=%s handshake=%s\n",
		limitN(l.MaxConns), limitN(l.MaxSessionCommands), limitN(l.MaxSessionRows),
		limitD(l.IdleTimeout), limitD(l.WriteTimeout), limitD(l.HandshakeTimeout))
	if s.Durability != nil {
		d := s.Durability()
		fmt.Fprintf(w, "durability:   journaled, fsync=%s, %d byte(s) / %d record(s) since last compaction, %d compaction(s)\n",
			d.Policy, d.JournalBytes, d.Records, d.Compactions)
		fmt.Fprintf(w, "recovery:     %s\n", d.Recovery)
	} else {
		fmt.Fprintln(w, "durability:   snapshot-only (no journal)")
	}
	if s.Hydration != nil {
		h := s.Hydration()
		if h.Lazy {
			fmt.Fprintf(w, "open:         lazy, %d/%d table(s) hydrated (%d hydration(s)), %d deferred journal record(s) pending, %d replayed\n",
				h.Hydrated, h.Tables, h.Hydrations, h.DeferredPending, h.DeferredReplayed)
		} else {
			fmt.Fprintln(w, "open:         eager (fully materialized)")
		}
	}
	pc := s.DB.ParetoCacheInfo()
	fmt.Fprintf(w, "frontier cache: %d hit(s), %d delta(s) applied, %d rebuild(s) (%d cold scope, %d foreign write), %d scope(s) cached\n",
		pc.Hits, pc.Deltas, pc.RebuildsCold+pc.RebuildsForeign, pc.RebuildsCold, pc.RebuildsForeign, pc.Scopes)
	return nil
}

func limitN(n int) string {
	if n <= 0 {
		return "off"
	}
	return fmt.Sprintf("%d", n)
}

func limitD(d time.Duration) string {
	if d <= 0 {
		return "off"
	}
	return d.String()
}

// lineWriter adapts a session's frame stream to the io.Writer a cql.Env
// prints to: every completed output line becomes one Row frame in the
// session's output buffer, which reaches the socket by the rules above
// flushBufSize — so rows reach a streaming client while the command is
// still running, in bursts. It is also where server-side aborts land: a
// socket write error, a Cancel frame, a row quota, or a shutdown
// surfaces here as the write error that stops a streamed find
// immediately (the engine's sink-error path). Those checks run on every
// row, buffered or not.
type lineWriter struct {
	sess *session
	part []byte // an unterminated line's bytes so far
	rows int
	gen  int64
	err  error
}

// reset starts a command's reply: the flush interval runs from here.
func (lw *lineWriter) reset(gen int64) {
	lw.part = lw.part[:0]
	lw.rows = 0
	lw.gen = gen
	lw.err = nil
	lw.sess.flushed = lw.sess.srv.clock()
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	if lw.err != nil {
		return 0, lw.err
	}
	if se := lw.sess.aborted(lw.gen); se != nil {
		lw.err = se
		return 0, se
	}
	n := len(p)
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			lw.part = append(lw.part, p...)
			return n, nil
		}
		// A line that arrives whole — the engine's renderers write one
		// line per call — is framed from p, with no copy on the way.
		line := p[:i]
		if len(lw.part) > 0 {
			lw.part = append(lw.part, line...)
			line = lw.part
		}
		err := lw.emit(line)
		lw.part = lw.part[:0]
		if err != nil {
			return 0, err
		}
		p = p[i+1:]
	}
}

// emit frames line as one Row into the session's output buffer,
// enforcing the session row quota first, and flushes the buffer when
// the last socket write is more than flushInterval old.
func (lw *lineWriter) emit(line []byte) error {
	sess := lw.sess
	srv := sess.srv
	if max := srv.Limits.MaxSessionRows; max > 0 && sess.rows >= max {
		srv.stats.quotaHits.Add(1)
		lw.err = &sessionErr{code: CodeQuota,
			msg:   fmt.Sprintf("session row quota (%d) exhausted", max),
			fatal: true}
		return lw.err
	}
	if lw.err = sess.frame(FrameRow, line); lw.err != nil {
		return lw.err
	}
	lw.rows++
	sess.rows++
	if srv.clock()-sess.flushed > flushInterval {
		lw.err = sess.out.Flush()
	}
	return lw.err
}

// finish frames a trailing unterminated line (defensive — CQL output
// is newline-terminated) and reports any write error seen during the
// command.
func (lw *lineWriter) finish() error {
	if lw.err == nil && len(lw.part) > 0 {
		lw.emit(lw.part)
		lw.part = lw.part[:0]
	}
	return lw.err
}

// doneCount decodes a Done payload.
func doneCount(payload []byte) int {
	if len(payload) != 4 {
		return -1
	}
	return int(binary.LittleEndian.Uint32(payload))
}
