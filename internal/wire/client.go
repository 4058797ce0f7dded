package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Client is one wire-protocol session. Exec is not safe for concurrent
// use — the protocol pipelines one command at a time per connection
// (open several clients for parallelism; each gets its own server-side
// session anyway) — but Cancel may be called from another goroutine
// while an Exec is in flight.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wmu  sync.Mutex // serializes frame writes (Exec vs Cancel)
	// rbuf is the payload buffer every reply frame is read into; a row
	// costs one allocation, the string handed to onRow.
	rbuf []byte
}

// RemoteError is a command failure reported by the server (an Error
// frame): the command was delivered and rejected, as opposed to a
// transport failure. Code classifies it (CodeGeneric for a pre-Hello
// handshake rejection). Retry helpers never retry a RemoteError.
type RemoteError struct {
	Code ErrCode
	Msg  string
}

func (e *RemoteError) Error() string { return e.Msg }

// Backoff is the retry policy for transport-level failures: attempt
// delays grow exponentially from Base up to Max, each with uniform
// jitter in [d/2, d) so a fleet of reconnecting clients does not
// stampede the server in lockstep.
type Backoff struct {
	// Attempts is the total number of tries; values below 1 mean a
	// single attempt (no retry).
	Attempts int
	// Base is the first retry's nominal delay (default 100ms).
	Base time.Duration
	// Max caps the nominal delay (default 5s).
	Max time.Duration
}

// delay computes the jittered sleep before retry number attempt
// (0-based).
func (b Backoff) delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Options configures a client connection beyond the address.
type Options struct {
	// Secret is the shared-secret auth token presented in the
	// handshake; leave empty for servers without -secret.
	Secret string
	// DialTimeout bounds the TCP connect (default 10s).
	DialTimeout time.Duration
	// Retry is the dial retry policy for transport failures; the zero
	// value means a single attempt.
	Retry Backoff
}

// Dial connects to an icdbd server and completes the handshake with
// default options (no auth, no retry).
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to an icdbd server, retrying transport failures
// per o.Retry with exponential backoff and jitter. A RemoteError — the
// server answered and rejected us (bad auth, connection limit, version)
// — is returned immediately, never retried.
func DialOptions(addr string, o Options) (*Client, error) {
	attempts := o.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(o.Retry.delay(i - 1))
		}
		c, err := dialOnce(addr, o)
		if err == nil {
			return c, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

func dialOnce(addr string, o Options) (*Client, error) {
	dt := o.DialTimeout
	if dt <= 0 {
		dt = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, dt)
	if err != nil {
		return nil, err
	}
	c, err := NewClientOptions(conn, o)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient runs the client side of the handshake over an established
// connection with default options (for tests and custom transports);
// on success the client owns conn.
func NewClient(conn net.Conn) (*Client, error) { return NewClientOptions(conn, Options{}) }

// NewClientOptions runs the client side of the handshake over an
// established connection; on success the client owns conn.
func NewClientOptions(conn net.Conn, o Options) (*Client, error) {
	// The reader matches the server's output buffer, so a coalesced burst
	// of reply frames is taken off the socket in one read.
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, flushBufSize), bw: bufio.NewWriter(conn)}
	if err := writePreamble(c.bw, Version); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	t, payload, err := ReadFrame(c.br)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	switch t {
	case FrameHello:
		if v := doneCount(payload); v != Version {
			return nil, fmt.Errorf("wire: server speaks protocol version %d, client %d", v, Version)
		}
	case FrameError:
		// Pre-Hello handshake rejections are plain text in every
		// protocol version (the frozen handshake contract).
		return nil, &RemoteError{Code: CodeGeneric, Msg: string(payload)}
	default:
		return nil, fmt.Errorf("wire: handshake: unexpected %s frame", t)
	}
	// Auth exchange: send our token (possibly empty), wait for the
	// server's verdict.
	if err := c.writeFrame(FrameHello, []byte(o.Secret)); err != nil {
		return nil, err
	}
	t, payload, err = ReadFrame(c.br)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	switch t {
	case FrameDone:
	case FrameError:
		code, msg := decodeError(payload)
		return nil, &RemoteError{Code: code, Msg: msg}
	default:
		return nil, fmt.Errorf("wire: handshake: unexpected %s frame", t)
	}
	return c, nil
}

// writeFrame writes and flushes one frame under the write lock, so
// Cancel can interleave safely with an in-flight Exec.
func (c *Client) writeFrame(t FrameType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := WriteFrame(c.bw, t, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Cancel asks the server to abort the in-flight command without
// dropping the connection; the command answers with a RemoteError of
// CodeCancelled (or completes normally if it won the race). Safe to
// call from another goroutine while Exec is reading the reply.
func (c *Client) Cancel() error {
	return c.writeFrame(FrameCancel, nil)
}

// Exec sends one CQL command and streams the reply: onRow (if non-nil)
// receives each output line as it arrives, and the returned count is
// the number of rows the server sent. A *RemoteError is a server-side
// command failure; any other error is a transport failure, after which
// the client is unusable.
func (c *Client) Exec(cmd string, onRow func(line string)) (rows int, err error) {
	return c.ExecContext(context.Background(), cmd, onRow)
}

// ExecContext is Exec with cancellation: when ctx ends mid-command the
// client sends a Cancel frame and keeps reading until the server
// acknowledges (RemoteError CodeCancelled) or the command completes
// anyway — the session stays usable either way.
func (c *Client) ExecContext(ctx context.Context, cmd string, onRow func(line string)) (rows int, err error) {
	if err := c.writeFrame(FrameCommand, []byte(cmd)); err != nil {
		return 0, err
	}
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				if c.Cancel() != nil {
					// Dead session: the Cancel could not be written, so the
					// only way to honor ctx is to abandon the connection.
					c.conn.SetReadDeadline(time.Now())
				}
			case <-stop:
			}
		}()
	}
	for {
		t, payload, err := readFrameInto(c.br, c.rbuf)
		c.rbuf = payload[:0]
		if err != nil {
			if ctx.Err() != nil {
				return rows, fmt.Errorf("wire: command abandoned: %w", ctx.Err())
			}
			return rows, fmt.Errorf("wire: reading reply: %w", err)
		}
		switch t {
		case FrameRow:
			rows++
			if onRow != nil {
				onRow(string(payload))
			}
		case FrameDone:
			if n := doneCount(payload); n != rows {
				return rows, fmt.Errorf("wire: server reports %d rows, received %d", n, rows)
			}
			return rows, nil
		case FrameError:
			code, msg := decodeError(payload)
			return rows, &RemoteError{Code: code, Msg: msg}
		default:
			return rows, fmt.Errorf("wire: unexpected %s frame in command reply", t)
		}
	}
}

// ExecRetry dials addr and runs one command as its own session,
// retrying transport failures (dial errors, dropped connections) with
// the backoff policy in o.Retry; a RemoteError is returned immediately,
// never retried. A command whose stream already delivered rows is not
// retried either, so onRow never sees duplicates. This is the one-shot
// client path ("icdbq connect -c"); it must not
// be used for commands that depend on session state.
func ExecRetry(ctx context.Context, addr string, o Options, cmd string, onRow func(line string)) (int, error) {
	attempts := o.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	dialOpts := o
	dialOpts.Retry.Attempts = 1 // the outer loop owns retry pacing
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-time.After(o.Retry.delay(i - 1)):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		c, err := DialOptions(addr, dialOpts)
		if err != nil {
			var re *RemoteError
			if errors.As(err, &re) {
				return 0, err
			}
			lastErr = err
			continue
		}
		rows, err := c.ExecContext(ctx, cmd, onRow)
		c.Close()
		if err == nil {
			return rows, nil
		}
		var re *RemoteError
		if errors.As(err, &re) || rows > 0 || ctx.Err() != nil {
			return rows, err
		}
		lastErr = err
	}
	return 0, lastErr
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }
