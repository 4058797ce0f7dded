package wire

// Server liveness tests: a slow or vanished client must never block
// other sessions or corrupt the store. They run over net.Pipe — a
// synchronous, unbuffered transport — so "client stops reading" means
// the server's very next socket write blocks, deterministically,
// without having to outgrow kernel socket buffers. Replies are sized
// (addImplsSpanning) to overflow the session output buffer several
// times, so that write happens mid-stream.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"icdb/internal/icdb"
)

// pipeListener is an in-memory net.Listener handing out net.Pipe ends.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server one pipe end and returns the client end.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.ch <- server:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not accept the pipe connection")
	}
	return client
}

// startPipeServer serves db over an in-memory listener.
func startPipeServer(t *testing.T, db *icdb.DB) *pipeListener {
	t.Helper()
	ln := newPipeListener()
	srv := &Server{DB: db}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln
}

// stallingClient opens a session and issues cmd, reads the first Row
// frame, then stops reading — on the synchronous pipe the server is now
// blocked in the socket write that row arrived in (the first full
// buffer of a spanning reply, or a small reply's only write) until the
// client reads again or disconnects.
func stallingClient(t *testing.T, ln *pipeListener, cmd string) net.Conn {
	t.Helper()
	conn := ln.dial(t)
	rawHandshake(t, conn, "")
	if err := WriteFrame(conn, FrameCommand, []byte(cmd)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(conn); err != nil || ft != FrameRow {
		t.Fatalf("first row: frame %v err %v", ft, err)
	}
	return conn
}

// TestSlowClientDoesNotBlockOtherSessions is the tentpole's acceptance
// scenario: session A is mid-stream in an unbounded find and has
// stopped reading (server blocked writing to it); session B must still
// complete a write (generate) and a find of its own.
func TestSlowClientDoesNotBlockOtherSessions(t *testing.T) {
	db := openDB(t)
	addImplsSpanning(t, db)
	ln := startPipeServer(t, db)

	stalled := stallingClient(t, ln, "find component executing STORAGE")
	defer stalled.Close()

	fast, err := NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	type result struct {
		rows int
		err  error
	}
	res := make(chan result, 1)
	go func() {
		if _, err := fast.Exec("generate Counter size=24", nil); err != nil {
			res <- result{0, err}
			return
		}
		n, err := fast.Exec("find component of type Counter order by area limit 5", nil)
		res <- result{n, err}
	}()
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("fast session: %v", r.err)
		}
		if r.rows == 0 {
			t.Fatal("fast session find returned no rows")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast session blocked behind a stalled streaming client")
	}
}

// TestMidStreamDisconnectLeavesStoreConsistent hangs a client up in the
// middle of a streamed find and checks the server keeps serving and the
// store still answers queries with the same catalog as before.
func TestMidStreamDisconnectLeavesStoreConsistent(t *testing.T) {
	db := openDB(t)
	addImplsSpanning(t, db)
	ln := startPipeServer(t, db)

	probe, err := NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	before, err := probe.Exec("find component executing STORAGE", nil)
	if err != nil {
		t.Fatal(err)
	}

	stalled := stallingClient(t, ln, "find component executing STORAGE")
	stalled.Close() // vanish mid-stream

	c, err := NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	after, err := c.Exec("find component executing STORAGE", nil)
	if err != nil {
		t.Fatalf("find after disconnect: %v", err)
	}
	if after != before {
		t.Fatalf("catalog has %d STORAGE rows after mid-stream disconnect, want %d", after, before)
	}
	if _, err := c.Exec("generate Counter size=12", nil); err != nil {
		t.Fatalf("write after disconnect: %v", err)
	}
}

// TestConcurrentSessions runs several connections issuing mixed
// find/generate/set traffic concurrently; under -race this checks the
// per-connection sessions and the shared DB stay coherent.
func TestConcurrentSessions(t *testing.T) {
	db := openDB(t)
	addImpls(t, db, 60)
	_, addr := startServer(t, db)

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer c.Close()
			width := i%16 + 1
			if _, err := c.Exec(fmt.Sprintf("set width %d", width), nil); err != nil {
				t.Errorf("client %d set: %v", i, err)
				return
			}
			for round := 0; round < 10; round++ {
				if _, err := c.Exec("find component executing STORAGE order by cost limit 3", nil); err != nil {
					t.Errorf("client %d find: %v", i, err)
					return
				}
				if _, err := c.Exec(fmt.Sprintf("generate Counter size=%d", (i*10+round)%60+1), nil); err != nil {
					t.Errorf("client %d generate: %v", i, err)
					return
				}
				// The session width must have survived the round.
				var sess strings.Builder
				if _, err := c.Exec("show session", func(l string) { sess.WriteString(l + "\n") }); err != nil {
					t.Errorf("client %d show session: %v", i, err)
					return
				}
				want := fmt.Sprintf("width:        %d", width)
				if !strings.Contains(sess.String(), want) {
					t.Errorf("client %d: session width drifted, want %q in:\n%s", i, want, sess.String())
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
