// connect.go implements icdbq's client mode: "icdbq connect" opens a
// wire-protocol session against a running icdbd server (internal/wire)
// and drives it as a REPL or as a one-shot command. Result rows stream
// to stdout as the server sends them; the session state the set command
// adjusts (width, weights) lives server-side and spans the whole
// connection.
//
// Client resilience: transport failures (refused dials, dropped
// connections) are retried with exponential backoff and jitter up to
// -retries attempts, while server-side rejections (bad commands, bad
// auth, quotas) are never retried and exit non-zero. Ctrl-C during a
// streamed command sends the protocol's Cancel frame: the find stops,
// the REPL session survives.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"icdb/internal/wire"
)

// defaultAddr is where icdbq connect and icdbd meet unless told
// otherwise; it is the single source of truth for both usage strings
// and the -addr flag default.
const defaultAddr = "127.0.0.1:7390"

// defaultRetries is the default transport-retry budget for client
// commands (dial attempts, and full re-runs of a one-shot command that
// failed before any row arrived).
const defaultRetries = 3

// runConnect dispatches "icdbq connect": a remote REPL by default, one
// command with -c.
func runConnect(args []string) error {
	fs := flag.NewFlagSet("connect", flag.ContinueOnError)
	addr := fs.String("addr", defaultAddr, "icdbd server address")
	cmd := fs.String("c", "", "execute one command and exit instead of starting a REPL")
	secret := fs.String("secret", os.Getenv("ICDB_SECRET"), "shared-secret auth token for -secret servers (default $ICDB_SECRET)")
	retries := fs.Int("retries", defaultRetries, "attempts for transport failures (server-rejected commands are never retried)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (use -c %q to run one command)", fs.Arg(0), fs.Arg(0))
	}
	opts := wire.Options{Secret: *secret, Retry: wire.Backoff{Attempts: *retries}}
	if *cmd != "" {
		return remoteOneShot(*addr, opts, *cmd)
	}
	c, err := wire.DialOptions(*addr, opts)
	if err != nil {
		return fmt.Errorf("connecting to %s: %w", *addr, err)
	}
	defer c.Close()
	return remoteREPL(c, *addr)
}

// remoteOneShot runs one command as its own session with transport
// retry, streaming rows to stdout. Ctrl-C cancels the command (the
// server aborts the stream) and exits non-zero; a server-side error
// propagates as the (non-nil) exit status.
func remoteOneShot(addr string, opts wire.Options, cmd string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	_, err := wire.ExecRetry(ctx, addr, opts, cmd, func(line string) { fmt.Println(line) })
	if err != nil {
		return fmt.Errorf("%s: %w", addr, err)
	}
	return nil
}

// remoteREPL mirrors the local REPL (cql.go) over a wire session: the
// server holds the session state, so set width / set area_weight stick
// across commands here exactly as they do locally. Remote errors name
// no column, so there is no caret line. Ctrl-C mid-command cancels
// that command — the server answers with a cancelled error and the
// session (and REPL) carry on.
func remoteREPL(c *wire.Client, addr string) error {
	fmt.Printf("ICDB CQL, connected to %s. Type \"help\" for the command summary, \"quit\" to leave.\n", addr)
	rd := bufio.NewReader(os.Stdin)
	for {
		fmt.Print(replPrompt)
		raw, err := rd.ReadString('\n')
		if err != nil && raw == "" {
			fmt.Println()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		atEOF := err != nil
		line := strings.TrimSpace(raw)
		switch line {
		case "":
			if atEOF {
				fmt.Println()
				return nil
			}
			continue
		case "quit", "exit":
			return nil
		}
		if err := remoteExecInterruptible(c, line); err != nil {
			var re *wire.RemoteError
			if errors.As(err, &re) {
				if re.Code == wire.CodeCancelled {
					fmt.Println("cancelled")
				} else {
					fmt.Printf("error: %v\n", re)
				}
			} else {
				// Transport failure: the connection is gone.
				return err
			}
		}
		if atEOF {
			fmt.Println()
			return nil
		}
	}
}

// remoteExecInterruptible runs one REPL command with Ctrl-C wired to
// the protocol's Cancel frame for just that command's duration.
func remoteExecInterruptible(c *wire.Client, cmd string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	_, err := c.ExecContext(ctx, cmd, func(line string) { fmt.Println(line) })
	return err
}
