package wire

// End-to-end coverage of the design-space verbs over the wire. explore
// sweeps, pareto frontiers, and the explorations listing stream as
// ordinary Row frames through the per-session cql.Env, so the existing
// cancel and quota machinery applies to them unchanged — the latter two
// tests pin that down rather than assume it.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"icdb/internal/genus"
	"icdb/internal/icdb"
)

// TestExploreAndParetoOverWire drives a sweep and a frontier query
// through a TCP session and checks the streamed rows, including that
// the recorded space is database state visible to a second session.
func TestExploreAndParetoOverWire(t *testing.T) {
	db := openDB(t)
	_, addr := startServer(t, db)
	c := dialT(t, addr)

	lines := execLines(t, c, "explore gen_cnt width 4..16 step 4")
	if len(lines) != 5 {
		t.Fatalf("explore streamed %d rows: %q", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "width   4: area 48 delay 2.25") {
		t.Errorf("explore row = %q", lines[0])
	}
	if lines[4] != "explored 4 design point(s) of gen_cnt" {
		t.Errorf("explore summary = %q", lines[4])
	}

	lines = execLines(t, c, "find pareto of generator gen_cnt dominated")
	if len(lines) != 4 {
		t.Fatalf("pareto streamed %d rows: %q", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "1. gen_cnt[size=4]") {
		t.Errorf("frontier row = %q", lines[0])
	}
	if !strings.Contains(lines[1], "dominated by gen_cnt[size=4] (Δarea 48, Δdelay 0.25)") {
		t.Errorf("dominated row = %q", lines[1])
	}

	// Explorations are shared catalog state, not session state: a
	// second client sees the same recorded space.
	c2 := dialT(t, addr)
	if got := execLines(t, c2, "show explorations"); len(got) != 4 {
		t.Fatalf("second session lists %d explorations: %q", len(got), got)
	}
}

// TestParetoRowQuotaOverWire: a dominated-frontier stream crossing the
// session row quota is cut mid-stream with CodeQuota, exactly like an
// ordinary find.
func TestParetoRowQuotaOverWire(t *testing.T) {
	db := openDB(t)
	if _, err := db.Explore("gen_cnt", 1, 128, 1, nil, false); err != nil {
		t.Fatal(err)
	}
	srv, ln := startPipeServerOpts(t, db, func(s *Server) {
		s.Limits.MaxSessionRows = 10
	})
	c, err := NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Exec("find pareto of generator gen_cnt dominated", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeQuota {
		t.Fatalf("quota exec: err = %v, want RemoteError %s", err, CodeQuota)
	}
	if rows != 10 {
		t.Fatalf("received %d rows before the quota error, want 10", rows)
	}
	if srv.Stats().QuotaHits != 1 {
		t.Errorf("quota hits = %d, want 1", srv.Stats().QuotaHits)
	}
}

// TestParetoCancelMidStreamOverWire: context cancellation aborts an
// in-flight pareto stream with CodeCancelled and the session survives.
// The space is imported point by point (a generator sweep stops at 128
// widths) and sized so the dominated listing spans four output buffers,
// which pins the stream mid-flight on the synchronous pipe.
func TestParetoCancelMidStreamOverWire(t *testing.T) {
	db := openDB(t)
	// A dominated row is at least the 5-byte header, "   ", the point ID
	// padded to 24, the component padded to 18 and 50 bytes of labels
	// and numbers.
	n := spanRows(4, 5+3+24+1+18+50)
	for i := 0; i < n; i++ {
		if err := db.RecordExploration(icdb.Exploration{
			Generator: "imported", Bindings: fmt.Sprintf("size=%d", i+1),
			Component: genus.CompCounter, Width: i%128 + 1,
			Area: float64(i + 1), Delay: float64(i + 1), // point 1 dominates the rest
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv, ln := startPipeServerOpts(t, db, nil)
	c, err := NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	_, err = c.ExecContext(ctx, "find pareto of generator imported dominated", func(string) {
		rows++
		if rows == 1 {
			// As in TestFaultExecContextCancel: hold the read loop on
			// the synchronous pipe until the Cancel frame has landed,
			// so the abort is deterministic.
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
	if got := execLines(t, c, "show explorations"); len(got) != n {
		t.Fatalf("session dead or space corrupted after cancel: %d rows, want %d", len(got), n)
	}
}

// TestShowServerFrontierCacheLine: the operator view counts what the
// frontier cache did — a cold build, hits, a write applied as a delta,
// and a write behind the DB's back forcing a rebuild.
func TestShowServerFrontierCacheLine(t *testing.T) {
	db := openDB(t)
	_, addr := startServer(t, db)
	c := dialT(t, addr)

	frontierLine := func() string {
		t.Helper()
		for _, l := range execLines(t, c, "show server") {
			if strings.HasPrefix(l, "frontier cache:") {
				return l
			}
		}
		t.Fatal("show server printed no frontier cache line")
		return ""
	}
	if got, want := frontierLine(), "frontier cache: 0 hit(s), 0 delta(s) applied, 0 rebuild(s) (0 cold scope, 0 foreign write), 0 scope(s) cached"; got != want {
		t.Errorf("idle server:\n got %q\nwant %q", got, want)
	}

	execLines(t, c, "explore gen_cnt width 4..16 step 4") // nothing cached yet: no deltas
	execLines(t, c, "find pareto")                        // cold build
	execLines(t, c, "find pareto")                        // hit
	execLines(t, c, "explore gen_cnt width 20..20")       // one delta
	execLines(t, c, "find pareto dominated")              // hit
	if got, want := frontierLine(), "frontier cache: 2 hit(s), 1 delta(s) applied, 1 rebuild(s) (1 cold scope, 0 foreign write), 1 scope(s) cached"; got != want {
		t.Errorf("after record-then-ask:\n got %q\nwant %q", got, want)
	}

	if _, err := db.Store().Delete(icdb.TableExplorations, nil); err != nil {
		t.Fatal(err)
	}
	if lines := execLines(t, c, "find pareto"); len(lines) != 1 || !strings.HasPrefix(lines[0], "no explored design points") {
		t.Errorf("find pareto after a direct delete = %q", lines)
	}
	if got, want := frontierLine(), "frontier cache: 2 hit(s), 1 delta(s) applied, 2 rebuild(s) (1 cold scope, 1 foreign write), 1 scope(s) cached"; got != want {
		t.Errorf("after a foreign write:\n got %q\nwant %q", got, want)
	}
}
