package wire

// The flush contract of the coalesced reply path (WIRE.md § Streaming):
// how many socket writes a reply costs, when buffered rows leave, and
// that the write deadline is armed per socket write, never per row.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Write calls and bytes a server makes on one
// accepted connection.
type countingConn struct {
	net.Conn
	writes, bytes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection in a countingConn
// and hands it to the test.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.accepted <- cc
	return cc, nil
}

// TestCoalescedReplyWriteCount: over TCP, a reply of at most 20 rows
// costs exactly one socket write (rows and Done together), and a wide
// one at most ceil(bytes/flushBufSize)+2. The server's clock stands
// still, so every write counted is a full buffer or the closing flush;
// TestFlushIntervalStreamsTrickledRows covers the timed flush.
func TestCoalescedReplyWriteCount(t *testing.T) {
	db := openDB(t)
	n := addImplsSpanning(t, db)
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: tcp, accepted: make(chan *countingConn, 1)}
	srv := &Server{DB: db, now: func() time.Duration { return 0 }}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	c := dialT(t, tcp.Addr().String())
	conn := <-ln.accepted

	for _, tc := range []struct {
		cmd     string
		minRows int
		exact   bool
	}{
		{"find component executing STORAGE order by cost limit 1", 1, true},
		{"find component executing STORAGE order by cost limit 20", 20, true},
		{"describe reg_d", 5, true},
		{"find component exectuing STORAGE", 0, true}, // an Error reply
		{"find component executing STORAGE", n, false},
		{"show impls", n, false},
	} {
		w0, b0 := conn.writes.Load(), conn.bytes.Load()
		rows, err := c.Exec(tc.cmd, nil)
		if err != nil && tc.minRows > 0 {
			t.Fatalf("%s: %v", tc.cmd, err)
		}
		if rows < tc.minRows {
			t.Fatalf("%s: %d rows, want at least %d", tc.cmd, rows, tc.minRows)
		}
		writes, size := conn.writes.Load()-w0, conn.bytes.Load()-b0
		bound := (size+flushBufSize-1)/flushBufSize + 2
		if tc.exact {
			bound = 1
		}
		if writes > bound || writes < 1 {
			t.Errorf("%s: %d rows, %d bytes left in %d socket writes, want at most %d",
				tc.cmd, rows, size, writes, bound)
		}
	}
}

// scriptConn is the server end of a connection that records, in order,
// every write-deadline arming and every Write the session makes.
type scriptConn struct {
	net.Conn  // nil: anything else the session called would panic
	events    []string
	deadlines int
	out       bytes.Buffer
}

func (c *scriptConn) SetWriteDeadline(time.Time) error {
	c.events = append(c.events, "deadline")
	c.deadlines++
	return nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.events = append(c.events, "write")
	return c.out.Write(p)
}

func (c *scriptConn) writes() int { return len(c.events) - c.deadlines }

// frames decodes everything written so far.
func (c *scriptConn) frames(t *testing.T) (types []FrameType, payloads []string) {
	t.Helper()
	r := bytes.NewReader(c.out.Bytes())
	for {
		ft, p, err := ReadFrame(r)
		if err == io.EOF {
			return types, payloads
		}
		if err != nil {
			t.Fatalf("written stream does not decode: %v", err)
		}
		types, payloads = append(types, ft), append(payloads, string(p))
	}
}

// TestFlushIntervalStreamsTrickledRows drives lineWriter directly on a
// hand-moved clock: a burst stays in the buffer, each row emitted more
// than flushInterval after the last socket write reaches the socket
// before the next one is produced, a full buffer goes out by itself,
// Done takes whatever is left, and the deadline is armed exactly once
// ahead of every socket write.
func TestFlushIntervalStreamsTrickledRows(t *testing.T) {
	var now time.Duration
	conn := &scriptConn{}
	srv := &Server{now: func() time.Duration { return now }}
	srv.Limits.WriteTimeout = time.Second
	sess := newSession(srv, conn)
	lw := &lineWriter{sess: sess}
	row := func(i int) string { return fmt.Sprintf("row %04d", i) }
	emit := func(i int) {
		t.Helper()
		if _, err := io.WriteString(lw, row(i)+"\n"); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}

	// A burst: ten rows inside the interval never touch the socket.
	lw.reset(1)
	next := 0
	for ; next < 10; next++ {
		emit(next)
		now += flushInterval / 20
	}
	if len(conn.events) != 0 {
		t.Fatalf("a burst inside the flush interval reached the socket: %v", conn.events)
	}

	// A trickle: every row lands more than the interval after the last
	// socket write, and is on the socket before the next is produced.
	// The first one takes the burst along.
	for ; next < 15; next++ {
		now += flushInterval + time.Microsecond
		before := conn.writes()
		emit(next)
		if got := conn.writes() - before; got != 1 {
			t.Fatalf("trickled row %d cost %d socket writes, want 1", next, got)
		}
		if _, got := conn.frames(t); len(got) != next+1 || got[next] != row(next) {
			t.Fatalf("after trickled row %d the socket holds %d rows: %q", next, len(got), got)
		}
	}

	// Exactly at the interval is not past it.
	now += flushInterval
	before := conn.writes()
	emit(next)
	next++
	if conn.writes() != before {
		t.Fatal("a row emitted exactly flushInterval after the last write was flushed")
	}

	// A full buffer goes out without waiting for the clock.
	sent := conn.out.Len()
	for before = conn.writes(); conn.writes() == before; next++ {
		emit(next)
		if next > 2*flushBufSize/len(row(0)) {
			t.Fatal("the output buffer never filled")
		}
	}
	if got := conn.out.Len() - sent; got != flushBufSize {
		t.Errorf("a full buffer left in a write of %d bytes, want %d", got, flushBufSize)
	}

	// Done carries the remainder, in one write.
	if err := lw.finish(); err != nil {
		t.Fatal(err)
	}
	before = conn.writes()
	if !sess.reply(FrameDone, u32(uint32(lw.rows))) {
		t.Fatal("reply failed")
	}
	if got := conn.writes() - before; got != 1 {
		t.Errorf("Done cost %d socket writes, want 1", got)
	}
	types, payloads := conn.frames(t)
	if len(types) != next+1 || types[next] != FrameDone || doneCount([]byte(payloads[next])) != next {
		t.Fatalf("stream is %d frames ending in %s, want %d rows and a Done counting them", len(types), types[len(types)-1], next)
	}
	for i := 0; i < next; i++ {
		if types[i] != FrameRow || payloads[i] != row(i) {
			t.Fatalf("frame %d is %s %q, want Row %q", i, types[i], payloads[i], row(i))
		}
	}

	// The deadline was armed once before each socket write — so once per
	// burst, not once per row.
	if len(conn.events)%2 != 0 {
		t.Fatalf("odd event count: %v", conn.events)
	}
	for i := 0; i < len(conn.events); i += 2 {
		if conn.events[i] != "deadline" || conn.events[i+1] != "write" {
			t.Fatalf("events %d,%d are %s,%s; want deadline,write", i, i+1, conn.events[i], conn.events[i+1])
		}
	}
	if w := conn.writes(); w >= next/2 {
		t.Errorf("%d rows cost %d socket writes", next, w)
	}

	// A one-row reply is one write: the row rides with its Done, however
	// late Done is.
	conn.events, conn.deadlines = nil, 0
	conn.out.Reset()
	lw.reset(2)
	emit(0)
	now += 50 * flushInterval
	if !sess.reply(FrameDone, u32(1)) {
		t.Fatal("reply failed")
	}
	if types, _ := conn.frames(t); len(conn.events) != 2 || len(types) != 2 {
		t.Errorf("one-row reply: events %v, %d frames; want one deadline, one write, Row+Done", conn.events, len(types))
	}
}

// TestCoalescedRowsReachClientBeforeDone: coalescing does not turn a
// wide reply into store-and-forward. On the synchronous pipe the first
// row is in the client's hands while the find is still blocked writing
// a later buffer.
func TestCoalescedRowsReachClientBeforeDone(t *testing.T) {
	db := openDB(t)
	n := addImplsSpanning(t, db)
	srv, ln := startPipeServerOpts(t, db, nil)
	c, err := NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var once sync.Once
	var rowsAtFirst int64 = -1
	rows, err := c.Exec("find component executing STORAGE", func(string) {
		// The command cannot have finished — three more buffers are
		// waiting for this reader — and it tallies its rows at Done.
		once.Do(func() { rowsAtFirst = srv.Stats().Rows })
	})
	if err != nil || rows < n {
		t.Fatalf("find: %d rows, err %v", rows, err)
	}
	if rowsAtFirst != 0 {
		t.Fatalf("first row arrived after the command had finished (server tally %d)", rowsAtFirst)
	}
	if got := srv.Stats().Rows; got != int64(rows) {
		t.Fatalf("server tally after Done = %d, want %d", got, rows)
	}
}
