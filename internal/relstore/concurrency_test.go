package relstore

// Concurrency semantics of the snapshot-isolated read path: scans hold
// no lock across visitor callbacks, so visitors may re-enter the store,
// writers make progress mid-scan, and every scan observes exactly the
// rows that were live when it started. The first two tests are
// regressions for the pre-snapshot implementation, which held the
// store's read lock for the whole scan: a visitor re-entering the store
// while a writer waited deadlocked (RWMutex read locks are not
// re-entrant once a writer is pending), and any long scan starved all
// writers.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func concStore(t *testing.T, nRows int) *Store {
	t.Helper()
	s := New()
	if err := s.CreateTable(Schema{
		Table: "t",
		Columns: []Column{
			{Name: "name", Type: TString},
			{Name: "grp", Type: TInt},
			{Name: "val", Type: TFloat},
		},
		Key:     []string{"name"},
		Indexes: []Index{{Columns: []string{"grp"}}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRows; i++ {
		if err := s.Insert("t", Row{"name": fmt.Sprintf("r%04d", i), "grp": i % 4, "val": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestScanVisitorReentersStoreWhileWriterBlocked pins the deadlock fix:
// a visitor performs a re-entrant read while a writer is concurrently
// trying to insert. Under the old whole-scan read lock this deadlocked
// (the pending writer blocks the re-entrant RLock); under snapshot
// isolation both the re-entrant read and the writer complete.
func TestScanVisitorReentersStoreWhileWriterBlocked(t *testing.T) {
	s := concStore(t, 8)

	writerDone := make(chan error, 1)
	scanDone := make(chan error, 1)
	var started sync.Once
	go func() {
		scanDone <- s.Scan("t", nil, func(r Row) bool {
			started.Do(func() {
				go func() { writerDone <- s.Insert("t", Row{"name": "w", "grp": 9, "val": 9.0}) }()
				// Give the writer time to be genuinely pending before the
				// re-entrant reads below (the old code needed exactly this
				// interleaving to deadlock).
				time.Sleep(20 * time.Millisecond)
			})
			if _, err := s.Count("t", nil); err != nil {
				t.Error(err)
			}
			if _, err := s.Get("t", "r0000"); err != nil {
				t.Error(err)
			}
			return true
		})
	}()

	select {
	case err := <-scanDone:
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scan deadlocked against a pending writer (re-entrancy regression)")
	}
	select {
	case err := <-writerDone:
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer never completed")
	}
}

// TestWriterProgressDuringSlowScan is the acceptance-criterion shape: a
// streamed scan pauses mid-flight (a slow network client), and a writer
// must complete while the scan is still holding its position.
func TestWriterProgressDuringSlowScan(t *testing.T) {
	s := concStore(t, 10)

	visited := make(chan struct{})     // scan reached its first row
	release := make(chan struct{})     // test lets the scan continue
	writerDone := make(chan error, 1)  // writer finished
	scanDone := make(chan []string, 1) // names the scan saw

	go func() {
		var names []string
		first := true
		s.Scan("t", nil, func(r Row) bool {
			names = append(names, r["name"].(string))
			if first {
				first = false
				close(visited)
				<-release
			}
			return true
		})
		scanDone <- names
	}()

	<-visited
	go func() { writerDone <- s.Insert("t", Row{"name": "mid", "grp": 1, "val": 1.0}) }()

	// The writer must finish while the scan is parked on its first row.
	select {
	case err := <-writerDone:
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked behind a paused scan")
	}

	close(release)
	names := <-scanDone
	// Snapshot isolation: the scan sees the 10 original rows, not the
	// concurrently inserted one.
	if len(names) != 10 {
		t.Fatalf("scan saw %d rows %v, want the 10 pre-scan rows", len(names), names)
	}
	for _, n := range names {
		if n == "mid" {
			t.Fatalf("scan observed the concurrent insert %q", n)
		}
	}
	// The store itself does see it.
	if n, err := s.Count("t", nil); err != nil || n != 11 {
		t.Fatalf("post-scan Count = %d, %v; want 11", n, err)
	}
}

// TestScanSnapshotIsolation mutates the table heavily mid-scan (delete
// everything, insert replacements) and requires the scan to keep
// yielding exactly its pinned rows.
func TestScanSnapshotIsolation(t *testing.T) {
	s := concStore(t, 6)

	var got []string
	first := true
	err := s.Scan("t", nil, func(r Row) bool {
		if first {
			first = false
			// Visitor writes are allowed now: rewrite the table under the
			// scan's feet.
			if _, err := s.Delete("t", nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := s.Insert("t", Row{"name": fmt.Sprintf("new%d", i), "grp": 0, "val": 0.0}); err != nil {
					t.Fatal(err)
				}
			}
		}
		got = append(got, r["name"].(string))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"r0000", "r0001", "r0002", "r0003", "r0004", "r0005"}
	if len(got) != len(want) {
		t.Fatalf("scan yielded %v, want the original %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan yielded %v, want the original %v", got, want)
		}
	}
	if n, _ := s.Count("t", nil); n != 3 {
		t.Fatalf("table has %d rows after rewrite, want 3", n)
	}
	checkIndexConsistency(t, s, "t")
}

// TestRowsCursorReentrancy gives the iter.Seq2 cursor the same
// guarantees: re-entrant writes from the loop body, isolation from them.
func TestRowsCursorReentrancy(t *testing.T) {
	s := concStore(t, 5)
	n := 0
	for r, err := range s.Rows("t", Eq("grp", 0)) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		// Re-enter with a write keyed off the yielded row.
		if err := s.Upsert("t", Row{"name": r["name"].(string), "grp": r["grp"].(int), "val": 99.0}); err != nil {
			t.Fatal(err)
		}
	}
	if n != 2 { // groups cycle 0,1,2,3 over 5 rows -> grp 0 twice
		t.Fatalf("cursor yielded %d rows, want 2", n)
	}
	rows, err := s.Select("t", Eq("val", 99.0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("re-entrant upserts touched %d rows, want 2", len(rows))
	}
}

// TestConcurrentScansAndWritersStress runs scanning readers (with
// re-entrant point reads), cursor readers, and mutating writers against
// one table. Run under -race this exercises the copy-on-write discipline:
// any in-place mutation of a pinned snapshot is a detectable data race.
func TestConcurrentScansAndWritersStress(t *testing.T) {
	s := concStore(t, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans, writes atomic.Int64

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := s.Scan("t", Eq("grp", g%4), func(r Row) bool {
					if i%7 == 0 {
						s.Get("t", r["name"].(string))
					}
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
				for _, err := range s.Rows("t", nil) {
					if err != nil {
						t.Error(err)
						return
					}
				}
				scans.Add(1)
			}
		}(g)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Insert("t", Row{"name": name, "grp": i % 4, "val": float64(i)}); err != nil {
					t.Error(err)
					return
				}
				if err := s.Upsert("t", Row{"name": name, "grp": i % 4, "val": float64(i) + 0.5}); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := s.Delete("t", Eq("name", name)); err != nil {
						t.Error(err)
						return
					}
				}
				writes.Add(1)
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if scans.Load() == 0 || writes.Load() == 0 {
		t.Fatalf("stress did no work: %d scans, %d writes", scans.Load(), writes.Load())
	}
	checkIndexConsistency(t, s, "t")
}
