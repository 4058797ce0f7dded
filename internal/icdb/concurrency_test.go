package icdb

// Concurrency tests for the copy-on-write derived-state snapshots:
// streamed query visitors hold no lock, so they may run slowly, call
// back into the DB, and overlap freely with RegisterImpl — the
// engine-level counterpart of relstore's snapshot-isolation tests.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icdb/internal/genus"
)

// testImpl builds a registrable register implementation named name.
func testImpl(name string) Impl {
	return Impl{
		Name:      name,
		Component: genus.CompRegister,
		Functions: []genus.Function{genus.FuncSTORAGE},
		WidthMin:  1, WidthMax: 8, Stages: 1,
		Area: 1, Delay: 1,
		Params: []string{"size"},
		Source: fmt.Sprintf(
			"NAME: %s; PARAMETER: size; INORDER: d, clk; OUTORDER: q; { q = d @ (~r clk); }", name),
	}
}

// TestQueryScanVisitorReentersDB pins the re-entrancy contract: a
// streamed Find visitor may call back into the DB — including registering
// an implementation, which would self-deadlock if the stream held the
// index lock.
func TestQueryScanVisitorReentersDB(t *testing.T) {
	db := openDB(t)
	done := make(chan error, 1)
	go func() {
		first := true
		done <- db.Find(Query{}, func(c Candidate) bool {
			if first {
				first = false
				// Re-enter with a read and a write.
				if _, err := db.ImplByName(c.Impl.Name); err != nil {
					t.Errorf("re-entrant ImplByName: %v", err)
				}
				if err := db.RegisterImpl(testImpl("reent_reg")); err != nil {
					t.Errorf("re-entrant RegisterImpl: %v", err)
				}
			}
			return true
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Find: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Find with re-entrant visitor deadlocked")
	}
	if _, err := db.ImplByName("reent_reg"); err != nil {
		t.Fatalf("impl registered mid-scan is missing: %v", err)
	}
}

// TestRegisterProgressDuringSlowScan pins the writer-liveness claim: a
// visitor parked mid-stream does not block RegisterImpl, and the parked
// scan keeps yielding its pinned snapshot (never the new impl).
func TestRegisterProgressDuringSlowScan(t *testing.T) {
	db := openDB(t)
	base, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan error, 1)
	var once sync.Once
	seen := 0
	go func() {
		scanDone <- db.Find(Query{}, func(c Candidate) bool {
			if c.Impl.Name == "mid_scan_reg" {
				t.Errorf("scan yielded implementation registered after its snapshot was pinned")
			}
			seen++
			once.Do(func() {
				close(parked)
				<-release
			})
			return true
		})
	}()

	<-parked
	regDone := make(chan error, 1)
	go func() { regDone <- db.RegisterImpl(testImpl("mid_scan_reg")) }()
	select {
	case err := <-regDone:
		if err != nil {
			t.Fatalf("RegisterImpl during parked scan: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RegisterImpl blocked behind a parked scan visitor")
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Fatalf("Find: %v", err)
	}
	if seen != len(base) {
		t.Errorf("parked scan yielded %d implementations, want the %d in its snapshot", seen, len(base))
	}
	// A fresh query observes the registration.
	if _, err := db.ImplByName("mid_scan_reg"); err != nil {
		t.Fatalf("mid_scan_reg missing after scan: %v", err)
	}
}

// TestConcurrentQueriesAndRegistrations hammers ranked queries,
// streamed scans with re-entrant point reads, registrations, estimator
// updates, and cache invalidations against each other. Run under -race
// it is the engine-level counterpart of relstore's stress test.
func TestConcurrentQueriesAndRegistrations(t *testing.T) {
	db := openDB(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans, queries, writes atomic.Int64

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := db.Find(Query{Functions: []genus.Function{genus.FuncSTORAGE}}, func(c Candidate) bool {
					if _, err := db.ImplByName(c.Impl.Name); err != nil {
						t.Errorf("re-entrant ImplByName(%s): %v", c.Impl.Name, err)
						return false
					}
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				scans.Add(1)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.FindAll(Query{Type: genus.CompCounter, Width: 8, Limit: 3}); err != nil {
					t.Errorf("ranked query: %v", err)
					return
				}
				queries.Add(1)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("stress_%d_%d", g, i%10)
				if err := db.RegisterImpl(testImpl(name)); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				if err := db.RegisterEstimator(name, "area", fmt.Sprintf("width * %d", g+2)); err != nil {
					t.Errorf("estimator %s: %v", name, err)
					return
				}
				if i%7 == 0 {
					db.InvalidateCaches()
				}
				writes.Add(1)
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if scans.Load() == 0 || queries.Load() == 0 || writes.Load() == 0 {
		t.Fatalf("stress made no progress: scans=%d queries=%d writes=%d",
			scans.Load(), queries.Load(), writes.Load())
	}
	t.Logf("stress: %d scans, %d ranked queries, %d write rounds",
		scans.Load(), queries.Load(), writes.Load())
}

// TestFindUnderConcurrentWriters runs both Find paths against writers
// registering into the posting lists they read: ranked visitors, which
// run after the stream, re-enter the DB with a read and a write and must
// still see a best-first answer within the limit; streamed visitors
// re-enter with a read. Under -race this is the pinned-snapshot contract
// of DB.Find.
func TestFindUnderConcurrentWriters(t *testing.T) {
	db := openDB(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ranked, streamed, writes atomic.Int64
	loop := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	storage := []genus.Function{genus.FuncSTORAGE}
	for g := 0; g < 2; g++ {
		loop(func(i int) error {
			writes.Add(1)
			return db.RegisterImpl(testImpl(fmt.Sprintf("find_w%d_%d", g, i%20)))
		})
	}
	loop(func(i int) error {
		var prev *Candidate
		n := 0
		err := db.Find(Query{Functions: storage, Width: 4, Limit: 5}, func(c Candidate) bool {
			if prev != nil && (c.Cost < prev.Cost || c.Cost == prev.Cost && c.Impl.Name < prev.Impl.Name) {
				t.Errorf("ranked answer out of order: %s/%g after %s/%g", c.Impl.Name, c.Cost, prev.Impl.Name, prev.Cost)
			}
			if _, err := db.ImplByName(c.Impl.Name); err != nil {
				t.Errorf("re-entrant ImplByName(%s): %v", c.Impl.Name, err)
			}
			if n == 0 {
				if err := db.RegisterImpl(testImpl(fmt.Sprintf("find_r_%d", i%20))); err != nil {
					t.Errorf("re-entrant RegisterImpl: %v", err)
				}
			}
			prev, n = &c, n+1
			return true
		})
		if n > 5 {
			t.Errorf("ranked Find yielded %d candidates, limit 5", n)
		}
		ranked.Add(1)
		return err
	})
	loop(func(int) error {
		streamed.Add(1)
		return db.Find(Query{Functions: storage}, func(c Candidate) bool {
			_, err := db.ImplByName(c.Impl.Name)
			return err == nil
		})
	})
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if ranked.Load() == 0 || streamed.Load() == 0 || writes.Load() == 0 {
		t.Fatalf("no progress: %d ranked, %d streamed, %d writes", ranked.Load(), streamed.Load(), writes.Load())
	}
}

// TestCompiledEstimatorsUnderConcurrentWriters runs the width-point path
// against everything that publishes into the intern table at once:
// ranked and streamed finds at a width evaluate programs while
// RegisterEstimator cycles one implementation through known and new
// sources, Generate registers implementations carrying the generator's
// expressions, and estimate-only sweeps take theirs from the table.
// Programs are immutable once published and the table is written under
// the cache lock only, so the race detector must stay silent and every
// answer must be one of the values some registered source produces.
func TestCompiledEstimatorsUnderConcurrentWriters(t *testing.T) {
	db := openDB(t)
	regScaled(t, db, "cycled", 3, 5, "area * width", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, writes atomic.Int64
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// area(cycled) at width 8 under each source the writer registers.
	sources := []string{"area * width", "area + width", "width", "area * width + 1"}
	valid := map[float64]bool{24: true, 11: true, 8: true, 25: true}
	for g := 0; g < 2; g++ {
		run(func(int) error {
			cands, err := db.FindAll(Query{Functions: []genus.Function{genus.FuncADD}, Width: 8, Order: Order{Attr: "area"}})
			if err != nil {
				return err
			}
			for _, c := range cands {
				if c.Impl.Name == "cycled" && !valid[c.Area] {
					return fmt.Errorf("cycled ranked at area %g, which no registered source yields", c.Area)
				}
			}
			reads.Add(1)
			return nil
		})
	}
	run(func(int) error {
		reads.Add(1)
		return db.Find(Query{Functions: []genus.Function{genus.FuncADD}, Width: 8}, func(c Candidate) bool {
			if c.Impl.Name == "cycled" && !valid[c.Area] {
				t.Errorf("cycled streamed at area %g", c.Area)
			}
			return true
		})
	})
	run(func(i int) error {
		writes.Add(1)
		return db.RegisterEstimator("cycled", "area", sources[i%len(sources)])
	})
	run(func(i int) error {
		writes.Add(1)
		_, _, err := db.Generate("gen_cnt", map[string]int{"size": 1 + i%64})
		return err
	})
	run(func(i int) error {
		writes.Add(1)
		if i%5 == 0 {
			db.InvalidateCaches()
		}
		_, err := db.Explore("gen_sub", 4, 16, 4, nil, false)
		return err
	})

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if reads.Load() == 0 || writes.Load() == 0 {
		t.Fatalf("no progress: %d reads, %d writes", reads.Load(), writes.Load())
	}
	// Four cycled sources, the builtin library's and the two generators':
	// the table holds one program per distinct text, however many rounds ran.
	if n := len(db.progs); n > 16 {
		t.Fatalf("intern table grew to %d programs over %d write rounds", n, writes.Load())
	}
}

// TestWeightsConstraint pins the per-query ranking-weight override:
// AreaWeight/DelayWeight rescore without filtering, beat the database
// defaults, and each falls back to its default on its own.
func TestWeightsConstraint(t *testing.T) {
	db := openDB(t)
	// Database defaults skew heavily toward area...
	if err := db.SetToolParam("icdb", "area_weight", 100); err != nil {
		t.Fatal(err)
	}
	byDefault, err := db.FindAll(Query{Type: genus.CompCounter, Order: Order{Attr: OrderKeyCost}})
	if err != nil || len(byDefault) == 0 {
		t.Fatalf("default query: %v (%d candidates)", err, len(byDefault))
	}
	// ...but an override scores delay only.
	zero, one := 0.0, 1.0
	byDelay, err := db.FindAll(Query{Type: genus.CompCounter, AreaWeight: &zero, DelayWeight: &one, Order: Order{Attr: OrderKeyCost}})
	if err != nil {
		t.Fatal(err)
	}
	if len(byDelay) != len(byDefault) {
		t.Fatalf("weights filtered: %d candidates, want %d", len(byDelay), len(byDefault))
	}
	for _, c := range byDelay {
		if c.Cost != c.Delay {
			t.Errorf("%s: cost %g under weights (0,1), want delay %g", c.Impl.Name, c.Cost, c.Delay)
		}
	}
	// A lone DelayWeight keeps the database's area weight.
	cands, err := db.FindAll(Query{Type: genus.CompCounter, DelayWeight: &zero})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Cost != 100*c.Area {
			t.Errorf("%s: cost %g under DelayWeight 0 alone, want 100*area %g", c.Impl.Name, c.Cost, 100*c.Area)
		}
	}
	// RankWeights reports the database defaults, not the override.
	if wa, wd, err := db.RankWeights(); err != nil || wa != 100 || wd != 1 {
		t.Errorf("RankWeights = (%g, %g, %v), want (100, 1)", wa, wd, err)
	}
}

// TestRankWeightsSurvivesRacingSetToolParam: a query that reads the tool
// parameters while SetToolParam commits a new value must not cache the
// old one past the write. Each round invalidates the cached weights,
// races one RankWeights against one SetToolParam, and then requires the
// new value: a reader that cached what it read before the commit would
// keep ranking with the old weight until the next write.
func TestRankWeightsSurvivesRacingSetToolParam(t *testing.T) {
	db := openDB(t)
	for round := 1; round <= 5000; round++ {
		db.InvalidateCaches()
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			db.RankWeights()
		}()
		go func() {
			defer wg.Done()
			<-start
			if err := db.SetToolParam("icdb", "area_weight", float64(round)); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if wa, _, _ := db.RankWeights(); wa != float64(round) {
			t.Fatalf("round %d: RankWeights area = %g after SetToolParam committed %d", round, wa, round)
		}
	}
}
