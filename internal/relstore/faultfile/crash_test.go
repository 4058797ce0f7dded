package faultfile

// Crash-torture suite for the write-ahead journal: run a fixed mutation
// workload against a Durable store on this package's fault-injecting
// filesystem, kill it at every single filesystem operation, reopen from
// the post-crash image under every keep mode, and assert the recovered
// store is exactly a committed prefix of the workload — under
// FsyncAlways, exactly the acknowledged mutations (± the one in
// flight). This is the filesystem analogue of wire's faultconn torture
// tests.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"icdb/internal/relstore"
)

const snapPath = "catalog.snap"

// step is one workload action: either a logical mutation (applied to
// the durable store and the shadow store alike) or a compaction
// (durable store only — it does not change logical state).
type step struct {
	name    string
	mut     func(s *relstore.Store) error
	compact bool
}

func workload() []step {
	sc := relstore.Schema{
		Table: "parts",
		Columns: []relstore.Column{
			{Name: "name", Type: relstore.TString},
			{Name: "qty", Type: relstore.TInt},
			{Name: "price", Type: relstore.TFloat},
			{Name: "active", Type: relstore.TBool},
		},
		Key:     []string{"name"},
		Indexes: []relstore.Index{{Columns: []string{"qty"}}},
	}
	ins := func(name string, qty int, price float64, active bool) func(*relstore.Store) error {
		return func(s *relstore.Store) error {
			return s.Insert("parts", relstore.Row{"name": name, "qty": qty, "price": price, "active": active})
		}
	}
	return []step{
		{name: "create-table", mut: func(s *relstore.Store) error { return s.CreateTable(sc) }},
		{name: "insert-alu", mut: ins("alu", 4, 12.5, true)},
		{name: "insert-mux", mut: ins("mux", 9, 1.25, false)},
		{name: "insert-reg", mut: ins("reg", 2, 3.5, true)},
		{name: "upsert-mux", mut: func(s *relstore.Store) error {
			return s.Upsert("parts", relstore.Row{"name": "mux", "qty": 16, "price": 1.0, "active": true})
		}},
		{name: "compact-1", compact: true},
		{name: "upsert-alu", mut: func(s *relstore.Store) error {
			return s.Upsert("parts", relstore.Row{"name": "alu", "qty": 104, "price": 12.5, "active": true})
		}},
		{name: "insert-shift", mut: ins("shift", 7, 0.75, false)},
		{name: "delete-reg", mut: func(s *relstore.Store) error {
			_, err := s.Delete("parts", relstore.Eq("name", "reg"))
			return err
		}},
		{name: "delete-active", mut: func(s *relstore.Store) error {
			// alu and mux: a multi-row record, all or nothing at recovery.
			n, err := s.Delete("parts", relstore.Eq("active", true))
			if err == nil && n != 2 {
				err = fmt.Errorf("delete-active removed %d rows, want 2", n)
			}
			return err
		}},
		{name: "compact-2", compact: true},
		{name: "insert-last", mut: ins("rom", 1, 99.0, true)},
	}
}

// runDurable opens a journaled store on fs and applies the workload,
// stopping at the first error. It returns how many steps succeeded —
// mutations acknowledged to the caller (compactions count as steps but
// change no state).
func runDurable(fs *FS, policy relstore.FsyncPolicy) (acked int, err error) {
	d, err := relstore.OpenDurable(snapPath, relstore.DurableOptions{
		FS:        fs,
		Fsync:     policy,
		CompactAt: -1, // explicit Compact steps only: keeps the op sequence deterministic
	})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	for i, st := range workload() {
		if st.compact {
			err = d.Compact()
		} else {
			err = st.mut(d.Store)
		}
		if err != nil {
			return i, err
		}
	}
	return len(workload()), nil
}

// dump renders a store's full logical state as the byte-comparable
// fingerprint the torture assertions use: the table sections of its
// deterministic snapshot encoding — every schema, index declaration and
// row, in order. A journaled store stamps its journal position into the
// covered-LSN header field, which the directory checksum and the
// trailer cover; that differs from the plain shadow stores without
// being part of the logical state, so everything before the first
// section, and the trailer, stay out (SNAPSHOT.md: 12-byte header, u64
// LSN, u32 table count, then the directory, whose first entry — u32
// name length, name, u64 offset — locates the first section).
func dump(t *testing.T, dir string, s *relstore.Store) []byte {
	t.Helper()
	path := filepath.Join(dir, "dump.snap")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatalf("dump: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if len(data) < 32 {
		t.Fatalf("dump: implausibly short snapshot (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[20:]) == 0 {
		return nil // no tables, no sections
	}
	offAt := 28 + int(binary.LittleEndian.Uint32(data[24:]))
	if offAt+8 > len(data) {
		t.Fatalf("dump: directory runs past the %d-byte snapshot", len(data))
	}
	first := binary.LittleEndian.Uint64(data[offAt:])
	if first > uint64(len(data)-4) {
		t.Fatalf("dump: first section at %d in a %d-byte snapshot", first, len(data))
	}
	return data[first : len(data)-4]
}

// shadows returns the expected store fingerprint after every workload
// prefix: shadows[i] is the state once the first i steps have applied.
func shadows(t *testing.T) [][]byte {
	t.Helper()
	dir := t.TempDir()
	s := relstore.New()
	out := [][]byte{dump(t, dir, s)}
	for _, st := range workload() {
		if !st.compact {
			if err := st.mut(s); err != nil {
				t.Fatalf("shadow step %s: %v", st.name, err)
			}
		}
		out = append(out, dump(t, dir, s))
	}
	return out
}

// recover reopens the store from a post-crash image and returns its
// fingerprint. Recovery must always succeed: a crash may cost work,
// never the catalog.
func recoverImage(t *testing.T, dir string, img *FS, crashAt int64, keep Keep) []byte {
	t.Helper()
	d, err := relstore.OpenDurable(snapPath, relstore.DurableOptions{FS: img, CompactAt: -1})
	if err != nil {
		t.Fatalf("crashAt=%d keep=%d: recovery failed: %v", crashAt, keep, err)
	}
	defer d.Close()
	return dump(t, dir, d.Store)
}

// TestCrashTortureFsyncAlways sweeps a crash over every filesystem
// operation of the workload under the always-fsync policy and asserts
// the strong guarantee: the recovered store holds exactly the
// acknowledged steps, or at most additionally the single step that was
// in flight when the crash hit. Never less, never a partial step.
func TestCrashTortureFsyncAlways(t *testing.T) {
	clean := New()
	if n, err := runDurable(clean, relstore.FsyncAlways); err != nil {
		t.Fatalf("clean run failed at step %d: %v", n, err)
	}
	total := clean.Ops()
	if total < 20 {
		t.Fatalf("workload only produced %d fs ops; sweep would be vacuous", total)
	}
	want := shadows(t)
	dir := t.TempDir()

	for crashAt := int64(0); crashAt < total; crashAt++ {
		for _, keep := range []Keep{KeepNone, KeepHalf, KeepAll} {
			fs := New()
			fs.CrashAt(crashAt)
			acked, err := runDurable(fs, relstore.FsyncAlways)
			// err == nil means the crash op landed inside the final Close
			// (whose error the workload discards) — every step was acked.
			if err != nil && !errors.Is(err, ErrCrashed) {
				t.Fatalf("crashAt=%d: unexpected error kind: %v", crashAt, err)
			}
			got := recoverImage(t, dir, fs.Image(keep), crashAt, keep)
			if bytes.Equal(got, want[acked]) {
				continue
			}
			// The in-flight step's record may have fully reached the
			// volatile tail and survived the keep mode; applying one
			// unacknowledged-but-journaled step on recovery is correct.
			if acked+1 < len(want) && bytes.Equal(got, want[acked+1]) {
				continue
			}
			t.Errorf("crashAt=%d keep=%d: recovered state is not the committed prefix (acked %d steps)", crashAt, keep, acked)
		}
	}
}

// TestCrashTortureFsyncOff sweeps the same crash points under the
// no-fsync policy, where the guarantee weakens to prefix-consistency:
// the recovered store is exactly the state after SOME prefix of the
// acknowledged steps — torn tails truncate cleanly, nothing is ever
// half-applied or reordered.
func TestCrashTortureFsyncOff(t *testing.T) {
	clean := New()
	if n, err := runDurable(clean, relstore.FsyncOff); err != nil {
		t.Fatalf("clean run failed at step %d: %v", n, err)
	}
	total := clean.Ops()
	want := shadows(t)
	dir := t.TempDir()

	for crashAt := int64(0); crashAt < total; crashAt++ {
		for _, keep := range []Keep{KeepNone, KeepHalf, KeepAll} {
			fs := New()
			fs.CrashAt(crashAt)
			acked, err := runDurable(fs, relstore.FsyncOff)
			if err != nil && !errors.Is(err, ErrCrashed) {
				t.Fatalf("crashAt=%d: unexpected error kind: %v", crashAt, err)
			}
			got := recoverImage(t, dir, fs.Image(keep), crashAt, keep)
			ok := false
			for j := 0; j <= acked+1 && j < len(want); j++ {
				if bytes.Equal(got, want[j]) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("crashAt=%d keep=%d: recovered state is no committed prefix (acked %d steps)", crashAt, keep, acked)
			}
		}
	}
}

// TestCrashDuringRecovery crashes a second time during the recovery
// rewrite itself (recovery truncates a torn tail via the atomic
// rewrite protocol) and asserts the third open still lands on a
// committed prefix: recovery is itself crash-safe.
func TestCrashDuringRecovery(t *testing.T) {
	// Build an image with a torn tail: crash mid-workload, keep half.
	fs := New()
	fs.CrashAt(25)
	acked, err := runDurable(fs, relstore.FsyncAlways)
	if err == nil {
		t.Fatal("workload did not observe the crash")
	}
	img := fs.Image(KeepHalf)
	want := shadows(t)
	dir := t.TempDir()

	// Count recovery's own fs ops, then crash at each of them.
	before := img.Ops()
	if got := recoverImage(t, dir, img, 25, KeepHalf); !prefixOf(got, want, acked+1) {
		t.Fatal("baseline recovery is not a committed prefix")
	}
	recoveryOps := img.Ops() - before

	for k := int64(0); k < recoveryOps; k++ {
		img2 := fs.Image(KeepHalf)
		img2.CrashAt(k)
		d, err := relstore.OpenDurable(snapPath, relstore.DurableOptions{FS: img2, CompactAt: -1})
		if err == nil {
			d.Close()
		} else if !errors.Is(err, ErrCrashed) {
			t.Fatalf("recovery crashAt=%d: unexpected error kind: %v", k, err)
		}
		got := recoverImage(t, dir, img2.Image(KeepNone), k, KeepNone)
		if !prefixOf(got, want, acked+1) {
			t.Errorf("crash during recovery at op %d: third open is not a committed prefix", k)
		}
	}
}

// TestCrashTortureLazyOpenHydration covers the lazy-open crash window:
// OpenDurable under OpenLazy partitions uncovered journal records onto
// cold stubs in memory only, and hydration's deferred replay never
// writes — so a crash anywhere between the lazy open and the first
// deferred replay (or after a partial hydration) must lose nothing.
// The sweep also crashes inside the lazy open's own filesystem ops and
// asserts both a lazy and an eager reopen still recover the full state.
func TestCrashTortureLazyOpenHydration(t *testing.T) {
	// A clean full run leaves "insert-last" uncovered by the final
	// compaction — the deferred-replay seed.
	fs := New()
	if n, err := runDurable(fs, relstore.FsyncAlways); err != nil {
		t.Fatalf("clean run failed at step %d: %v", n, err)
	}
	want := shadows(t)
	final := want[len(want)-1]
	dir := t.TempDir()

	lazyOpen := func(img *FS) (*relstore.Durable, error) {
		return relstore.OpenDurable(snapPath, relstore.DurableOptions{
			FS: img, CompactAt: -1, Open: relstore.OpenLazy,
		})
	}

	// Crash between lazy open and first deferred replay: abandon the
	// store untouched; the disk image must still recover fully.
	img := fs.Image(KeepAll)
	d, err := lazyOpen(img)
	if err != nil {
		t.Fatal(err)
	}
	if d.Recovery().Deferred == 0 {
		t.Fatal("workload left no deferred records; the sweep would be vacuous")
	}
	// Deliberately no Close: the simulated crash.
	if got := recoverImage(t, dir, img.Image(KeepNone), -1, KeepNone); !bytes.Equal(got, final) {
		t.Error("crash before first deferred replay lost state")
	}
	openOps := img.Ops()

	// Crash after a partial hydration (the first deferred replay ran,
	// in memory): same guarantee.
	img2 := fs.Image(KeepAll)
	d2, err := lazyOpen(img2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Get("parts", "rom"); err != nil {
		t.Fatalf("first touch after lazy open: %v", err)
	}
	if got := recoverImage(t, dir, img2.Image(KeepNone), -1, KeepNone); !bytes.Equal(got, final) {
		t.Error("crash after partial hydration lost state")
	}

	// Crash inside every fs op of the lazy open itself; both reopen
	// modes must then land on the full committed state (the clean image
	// has no torn tail, so the open only reads and opens for append).
	for k := int64(0); k < openOps; k++ {
		img3 := fs.Image(KeepAll)
		img3.CrashAt(k)
		if d3, err := lazyOpen(img3); err == nil {
			d3.Close()
		} else if !errors.Is(err, ErrCrashed) {
			t.Fatalf("lazy open crashAt=%d: unexpected error kind: %v", k, err)
		}
		after := img3.Image(KeepNone)
		if got := recoverImage(t, dir, after, k, KeepNone); !bytes.Equal(got, final) {
			t.Errorf("crashAt=%d: eager reopen after crashed lazy open lost state", k)
		}
		d4, err := lazyOpen(after)
		if err != nil {
			t.Fatalf("crashAt=%d: lazy reopen failed: %v", k, err)
		}
		got := dump(t, dir, d4.Store)
		d4.Close()
		if !bytes.Equal(got, final) {
			t.Errorf("crashAt=%d: lazy reopen after crashed lazy open lost state", k)
		}
	}
}

// prefixOf reports whether got equals want[j] for some j <= max.
func prefixOf(got []byte, want [][]byte, max int) bool {
	for j := 0; j <= max && j < len(want); j++ {
		if bytes.Equal(got, want[j]) {
			return true
		}
	}
	return false
}

// TestJournalFailStopOnWriteError injects a single failing journal
// write (not a crash) and asserts the fail-stop contract: the mutation
// errors, every later mutation errors too (the journal is poisoned),
// and reopening recovers the pre-failure state and accepts writes
// again.
func TestJournalFailStopOnWriteError(t *testing.T) {
	boom := errors.New("disk on fire")
	fs := New()
	d, err := relstore.OpenDurable(snapPath, relstore.DurableOptions{FS: fs, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	sc := relstore.Schema{
		Table:   "parts",
		Columns: []relstore.Column{{Name: "name", Type: relstore.TString}},
		Key:     []string{"name"},
	}
	if err := d.CreateTable(sc); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("parts", relstore.Row{"name": "ok"}); err != nil {
		t.Fatal(err)
	}
	fs.FailAt(fs.Ops()+1, boom) // next op is the journal write of the next mutation
	if err := d.Insert("parts", relstore.Row{"name": "lost"}); !errors.Is(err, boom) {
		t.Fatalf("expected injected write failure, got %v", err)
	}
	// Poisoned: the op after the failure would succeed at the fs level,
	// but the journal must refuse to ack anything it cannot order.
	if err := d.Insert("parts", relstore.Row{"name": "also-lost"}); err == nil {
		t.Fatal("journal accepted a mutation after a failed append")
	}
	d.Close()

	d2, err := relstore.OpenDurable(snapPath, relstore.DurableOptions{FS: fs, CompactAt: -1})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	defer d2.Close()
	if _, err := d2.Get("parts", "ok"); err != nil {
		t.Fatalf("pre-failure row lost: %v", err)
	}
	if _, err := d2.Get("parts", "lost"); err == nil {
		t.Fatal("failed mutation came back from the dead")
	}
	if err := d2.Insert("parts", relstore.Row{"name": "back"}); err != nil {
		t.Fatalf("store did not accept writes after reopen: %v", err)
	}
}
