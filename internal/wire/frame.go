// Package wire implements the ICDB network protocol: a length-prefixed,
// versioned binary framing over TCP that carries CQL commands to an
// icdbd server and streams result rows back. It is the transport the
// paper's tool/database split implies — synthesis tools talk to the
// component database server — layered over the same cql.Env every
// in-process front-end uses.
//
// The format follows the conventions of the relstore snapshot format
// (internal/relstore/SNAPSHOT.md): an 8-byte magic plus a u32 version up
// front, little-endian integers, and lengths always prefixing data. The
// full protocol is specified in WIRE.md.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Magic opens every connection: the client sends it (followed by its
// u32 protocol version) before the first frame, so a server can reject
// a stray HTTP request or port scan after eight bytes.
const Magic = "ICDBWIRE"

// Version is the protocol version this package speaks. A server rejects
// a client announcing any other version, a client rejects a server
// answering any other — neither guesses (the snapshot format's
// versioning policy).
const Version = 2

// MaxFrame bounds a frame's payload length. Commands are single lines
// and rows are single result lines, so 1MiB is generous; the bound
// keeps a corrupt or malicious length prefix from forcing a giant
// allocation.
const MaxFrame = 1 << 20

// FrameType tags one frame's meaning.
type FrameType uint8

// The frame types of protocol version 2.
const (
	// FrameHello is a handshake frame. Server to client its payload is
	// the u32 protocol version the session will speak; the client
	// answers with its own Hello whose payload is the (possibly empty)
	// shared-secret auth token.
	FrameHello FrameType = 1
	// FrameCommand carries one CQL command line, client to server.
	FrameCommand FrameType = 2
	// FrameRow carries one line of command output, server to client,
	// without the trailing newline. Rows stream as the engine yields
	// them — an unbounded find never materializes server-side.
	FrameRow FrameType = 3
	// FrameDone ends a command's reply: payload is the u32 count of Row
	// frames sent. Every command ends with exactly one Done or Error.
	// In the handshake an empty-count Done also acknowledges the client's
	// auth Hello.
	FrameDone FrameType = 4
	// FrameError ends a command's reply with a failure: the payload is a
	// u8 ErrCode followed by the error text — except in a pre-Hello
	// handshake rejection (a frozen contract), where it is the bare
	// text. The connection stays usable for further commands unless the
	// code (or a failed handshake) says otherwise.
	FrameError FrameType = 5
	// FrameCancel asks the server to abort the in-flight command
	// without dropping the connection, client to server, empty payload.
	// The aborted command answers with Error code CodeCancelled; a
	// Cancel that arrives when no command is in flight (the cancel-vs-
	// Done race) is ignored.
	FrameCancel FrameType = 6
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "Hello"
	case FrameCommand:
		return "Command"
	case FrameRow:
		return "Row"
	case FrameDone:
		return "Done"
	case FrameError:
		return "Error"
	case FrameCancel:
		return "Cancel"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// ErrCode classifies an Error frame so clients can react without
// parsing text: retry policy (RemoteErrors are never retried, but a
// caller may treat CodeQuota rejections specially), cancel
// acknowledgement, and clean-shutdown detection all key off it.
type ErrCode uint8

// The error codes of protocol version 2. Codes marked "session ends"
// are followed by the server closing the connection cleanly; the rest
// leave the session usable.
const (
	// CodeGeneric is a command failure (parse error, unknown impl, ...);
	// the session survives.
	CodeGeneric ErrCode = 0
	// CodeAuth rejects a session whose Hello auth token did not match
	// the server's shared secret. Session ends.
	CodeAuth ErrCode = 1
	// CodeQuota reports an exhausted server limit: connection limit at
	// handshake, or a per-session row/command quota. Session ends.
	CodeQuota ErrCode = 2
	// CodeTimeout reports an expired read/idle deadline. Session ends.
	CodeTimeout ErrCode = 3
	// CodeCancelled acknowledges a Cancel frame: the in-flight command
	// was aborted. The session survives.
	CodeCancelled ErrCode = 4
	// CodeShutdown tells the client the server is shutting down
	// gracefully; in-flight commands are aborted with it. Session ends.
	CodeShutdown ErrCode = 5
	// CodeProtocol reports a client protocol violation (unexpected
	// frame, pipeline overflow). Session ends.
	CodeProtocol ErrCode = 6
)

func (c ErrCode) String() string {
	switch c {
	case CodeGeneric:
		return "error"
	case CodeAuth:
		return "auth"
	case CodeQuota:
		return "quota"
	case CodeTimeout:
		return "timeout"
	case CodeCancelled:
		return "cancelled"
	case CodeShutdown:
		return "shutdown"
	case CodeProtocol:
		return "protocol"
	}
	return fmt.Sprintf("ErrCode(%d)", uint8(c))
}

func frameTooBig(t FrameType, n int) error {
	return fmt.Errorf("wire: %s frame payload %d bytes exceeds limit %d", t, n, MaxFrame)
}

// appendFrame appends one frame to b: u32 payload length, u8 type,
// payload.
func appendFrame(b []byte, t FrameType, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, byte(t))
	return append(b, payload...)
}

// WriteFrame writes one frame: u32 payload length, u8 type, payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return frameTooBig(t, len(payload))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Never issue a zero-length write: net.Pipe (the test
		// transport) rendezvouses even on empty writes, which would
		// deadlock an unbuffered peer mid-handshake.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame, bounding the payload
// at MaxFrame. io.EOF is returned unwrapped when the stream ends
// cleanly between frames (a client hanging up), io.ErrUnexpectedEOF
// mid-frame.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto is ReadFrame reading into buf's backing array — header
// first, then the payload over it — and allocating only when buf is too
// small. The returned payload is valid until buf is next used; hand
// payload[:0] back in to keep a buffer that grew.
func readFrameInto(r io.Reader, buf []byte) (FrameType, []byte, error) {
	if cap(buf) < 5 {
		buf = make([]byte, 5)
	}
	hdr := buf[:5]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	t := FrameType(hdr[4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: %s frame declares %d payload bytes, limit %d", t, n, MaxFrame)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return t, payload, nil
}

// writePreamble sends the client's connection opener: magic + the
// protocol version the client wants to speak.
func writePreamble(w io.Writer, version uint32) error {
	var buf [len(Magic) + 4]byte
	copy(buf[:], Magic)
	binary.LittleEndian.PutUint32(buf[len(Magic):], version)
	_, err := w.Write(buf[:])
	return err
}

// readPreamble validates a client's connection opener, returning the
// announced version.
func readPreamble(r io.Reader) (uint32, error) {
	var buf [len(Magic) + 4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	if string(buf[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("wire: bad magic %q (not an ICDB wire client)", buf[:len(Magic)])
	}
	return binary.LittleEndian.Uint32(buf[len(Magic):]), nil
}

// u32 renders a count as a Done/Hello payload.
func u32(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

// codedError renders a session Error payload: u8 code + text.
func codedError(code ErrCode, msg string) []byte {
	b := make([]byte, 1+len(msg))
	b[0] = byte(code)
	copy(b[1:], msg)
	return b
}

// decodeError splits a session Error payload into its leading u8 code
// and the text. (Pre-Hello handshake rejections are bare text and never
// come through here.)
func decodeError(payload []byte) (ErrCode, string) {
	if len(payload) == 0 {
		return CodeGeneric, ""
	}
	return ErrCode(payload[0]), string(payload[1:])
}
