package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

func openDB(t *testing.T) *icdb.DB {
	t.Helper()
	db, err := icdb.Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// addImpls registers n throwaway register implementations, bulking the
// catalog up so a streamed find outgrows socket and bufio buffers.
func addImpls(t *testing.T, db *icdb.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("bulk_%04d", i)
		err := db.RegisterImpl(icdb.Impl{
			Name:      name,
			Component: genus.CompRegister,
			Functions: []genus.Function{genus.FuncSTORAGE},
			WidthMin:  1, WidthMax: 64, Stages: 1,
			Area: float64(i%17) + 1, Delay: float64(i%11) + 1,
			Params: []string{"size"},
			Source: fmt.Sprintf(
				"NAME: %s; PARAMETER: size; INORDER: d, clk; OUTORDER: q; { q = d @ (~r clk); }", name),
		})
		if err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
}

// minFindRow is a lower bound on the framed size of one row of an
// unbounded find over addImpls' catalog: the 5-byte frame header plus
// "N. " (3), the name padded to 12, a space, the component type padded
// to 18, " width 1..64" (12), " area N" (7), " delay N" (8) and
// " cost N" (7).
const minFindRow = 5 + 3 + 12 + 1 + 18 + 12 + 7 + 8 + 7

// spanRows is how many rows of at least minRow framed bytes it takes
// for a reply to overflow the session output buffer `buffers` times.
func spanRows(buffers, minRow int) int { return buffers*flushBufSize/minRow + 1 }

// addImplsSpanning bulks the catalog so that the reply to
// "find component executing STORAGE" provably spans four output
// buffers: on the synchronous net.Pipe transport a client that reads
// one row and stops therefore holds the find mid-stream, blocked in its
// first socket write with most of the rows still unproduced. It returns
// the number of implementations added.
func addImplsSpanning(t *testing.T, db *icdb.DB) int {
	t.Helper()
	n := spanRows(4, minFindRow)
	addImpls(t, db, n)
	return n
}

// startServer serves db on a loopback TCP listener, closing everything
// at test end.
func startServer(t *testing.T, db *icdb.DB) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{DB: db}
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

// rawHandshake drives the client half of the handshake over a bare
// conn, for tests that speak frames by hand: preamble, server Hello,
// and the auth Hello / Done exchange.
func rawHandshake(t *testing.T, conn net.Conn, secret string) {
	t.Helper()
	if err := writePreamble(conn, Version); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := ReadFrame(conn)
	if err != nil || ft != FrameHello {
		t.Fatalf("handshake: frame %v err %v (payload %q)", ft, err, payload)
	}
	if got := doneCount(payload); got != Version {
		t.Fatalf("handshake: server answered version %d to a v%d client", got, Version)
	}
	if err := WriteFrame(conn, FrameHello, []byte(secret)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err = ReadFrame(conn)
	if err != nil || ft != FrameDone {
		t.Fatalf("auth: frame %v err %v (payload %q)", ft, err, payload)
	}
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func execLines(t *testing.T, c *Client, cmd string) []string {
	t.Helper()
	var lines []string
	n, err := c.Exec(cmd, func(line string) { lines = append(lines, line) })
	if err != nil {
		t.Fatalf("Exec(%q): %v", cmd, err)
	}
	if n != len(lines) {
		t.Fatalf("Exec(%q): count %d != %d delivered lines", cmd, n, len(lines))
	}
	return lines
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameType(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		ft, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if ft != FrameType(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got type %s payload %d bytes", i, ft, len(got))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
	// Oversized declared length is rejected without allocating it.
	bad := []byte{0xff, 0xff, 0xff, 0xff, byte(FrameRow)}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized frame: err = %v", err)
	}
}

func TestHandshakeAndCommands(t *testing.T) {
	db := openDB(t)
	_, addr := startServer(t, db)
	c := dialT(t, addr)

	lines := execLines(t, c, "show impls")
	if len(lines) == 0 {
		t.Fatal("show impls returned no rows")
	}
	// A parse error comes back as a RemoteError with the column intact,
	// and the session survives it.
	_, err := c.Exec("find component exectuing STORAGE", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "exectuing") {
		t.Fatalf("bad command: err = %v, want RemoteError mentioning the typo", err)
	}
	if got := execLines(t, c, "describe reg_d"); len(got) == 0 {
		t.Fatal("session dead after remote error")
	}
}

func TestHandshakeRejectsBadClients(t *testing.T) {
	db := openDB(t)
	srv, addr := startServer(t, db)

	// Wrong magic: the server hangs up without a frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("GET / HTTP/1.1\r\n"))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("bad magic: read err = %v, want EOF", err)
	}

	// Right magic, any version but ours — the retired v1 included: a
	// plain-text Error frame naming both versions, then hang-up: no
	// session starts.
	for _, v := range []uint32{1, 3, 99} {
		before := srv.Stats()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writePreamble(conn, v); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := ReadFrame(conn)
		if err != nil || ft != FrameError {
			t.Fatalf("version %d: frame %s err %v, want Error", v, ft, err)
		}
		want := fmt.Sprintf("unsupported protocol version %d (server speaks %d)", v, Version)
		if string(payload) != want {
			t.Fatalf("version %d rejection text: %q, want plain-text %q", v, payload, want)
		}
		if ft, _, err := ReadFrame(conn); err == nil {
			t.Fatalf("version %d: server sent a %s frame after the rejection", v, ft)
		}
		after := srv.Stats()
		if after.SessionsRejected != before.SessionsRejected+1 || after.Commands != before.Commands {
			t.Fatalf("version %d: rejected %d -> %d, commands %d -> %d; want one rejection and no command",
				v, before.SessionsRejected, after.SessionsRejected, before.Commands, after.Commands)
		}
	}
}

// TestSessionIsolation interleaves two connections and checks that set
// width and weight overrides are confined to the session that set them.
func TestSessionIsolation(t *testing.T) {
	db := openDB(t)
	_, addr := startServer(t, db)
	c1 := dialT(t, addr)
	c2 := dialT(t, addr)

	execLines(t, c1, "set width 16")
	// c2 still sees the default session...
	sess2 := strings.Join(execLines(t, c2, "show session"), "\n")
	if !strings.Contains(sess2, "width:        off") {
		t.Fatalf("c2 session inherited c1's width:\n%s", sess2)
	}
	// ...and c1's implicit find equals c2's explicit at-width find.
	implicit := execLines(t, c1, "find component of type Counter order by area")
	explicit := execLines(t, c2, "find component of type Counter at width 16 order by area")
	if strings.Join(implicit, "\n") != strings.Join(explicit, "\n") {
		t.Fatalf("c1 (session width 16) != c2 (explicit at width 16):\n%v\nvs\n%v", implicit, explicit)
	}
	// c2's plain find stays scalar.
	scalar := execLines(t, c2, "find component of type Counter order by area")
	if strings.Join(scalar, "\n") == strings.Join(explicit, "\n") {
		t.Fatal("c2's plain find unexpectedly evaluated at width 16")
	}

	// Weight overrides are likewise per-session: c1 scores by delay
	// alone, c2 keeps the defaults.
	execLines(t, c1, "set area_weight 0")
	execLines(t, c1, "set width off")
	d1 := execLines(t, c1, "find component of type Counter order by cost limit 1")
	d2 := execLines(t, c2, "find component of type Counter order by cost limit 1")
	if len(d1) != 1 || len(d2) != 1 {
		t.Fatalf("limit 1 finds returned %d and %d rows", len(d1), len(d2))
	}
	if d1[0] == d2[0] {
		t.Fatalf("weight override leaked: both sessions rank %q first", d1[0])
	}
}

// TestServerStreamsBeforeDone checks rows arrive as Row frames before
// the Done frame and the Done count matches.
func TestServerStreamsBeforeDone(t *testing.T) {
	db := openDB(t)
	addImpls(t, db, 50)
	_, addr := startServer(t, db)
	c := dialT(t, addr)
	lines := execLines(t, c, "find component executing STORAGE")
	if len(lines) < 50 {
		t.Fatalf("find streamed %d rows, want >= 50", len(lines))
	}
}
