package icdb_test

// The one cache-validity rule, end to end: every cache derived from a
// relation follows that relation whatever path a write took, rebuilds
// only when its own relation moved behind its back, and checking that it
// is current never waits for the store lock.

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
	"icdb/internal/relstore/faultfile"
)

// implRowOf is the implementations row of im, as RegisterImpl stores it.
func implRowOf(im icdb.Impl) relstore.Row {
	return relstore.Row{
		"name": im.Name, "component": string(im.Component), "style": im.Style,
		"functions": genus.FunctionSetKey(im.Functions),
		"width_min": im.WidthMin, "width_max": im.WidthMax, "stages": im.Stages,
		"area": im.Area, "delay": im.Delay,
		"params": strings.Join(im.Params, ","), "source": im.Source,
	}
}

// stampSources are the estimator expressions the stamp tests register:
// all finite over the synthetic catalog.
var stampSources = []string{"area * width", "delay", "delay * width", "area + width", "width", "area * 2"}

// TestForeignWritesMatchFullScanReference drives a seeded stream of
// registrations and direct Store() writes — upserts, updates and deletes
// on implementations, estimators and tool_params — with no
// InvalidateCaches anywhere, and after every step holds a ranked find at
// a width, a ranked scalar find and a streamed find to the full-scan
// reference, and RankWeights to the tool_params rows.
func TestForeignWritesMatchFullScanReference(t *testing.T) {
	const pool = 60 // synthetic names in play; a third start unregistered
	db, err := newSynthDB(40)
	if err != nil {
		t.Fatal(err)
	}
	if err := populateEstimators(db, 40); err != nil {
		t.Fatal(err)
	}
	store := db.Store()
	rng := rand.New(rand.NewSource(36))
	name := func() string { return nameOf(rng.Intn(pool)) }
	attr := func() string { return icdb.EstimatorAttrs()[rng.Intn(2)] }
	src := func() string { return stampSources[rng.Intn(len(stampSources))] }
	param := func() string { return []string{"area_weight", "delay_weight"}[rng.Intn(2)] }
	by := map[string]int{}
	for step := 0; step < 2000; step++ {
		var op string
		var err error
		switch rng.Intn(13) {
		case 0:
			op = "RegisterImpl"
			im := implAt(rng.Intn(pool))
			im.Area = float64(1 + rng.Intn(40))
			err = db.RegisterImpl(im)
		case 1:
			op = "RegisterEstimator"
			if err = db.RegisterEstimator(name(), attr(), src()); err != nil && strings.Contains(err.Error(), "no matching row") {
				err = nil // the implementation is not registered
			}
		case 2:
			op = "Generate"
			_, _, err = db.Generate("gen_cnt", map[string]int{"size": 1 + rng.Intn(32)})
		case 3:
			op = "SetToolParam"
			err = db.SetToolParam("icdb", param(), float64(rng.Intn(4)))
		case 4:
			op = "direct upsert implementations"
			im := implAt(rng.Intn(pool))
			im.Delay = float64(1 + rng.Intn(40))
			err = store.Upsert(icdb.TableImplementations, implRowOf(im))
		case 5:
			op = "direct rewrite implementations"
			a, d := float64(rng.Intn(40)), float64(rng.Intn(40))
			err = rewrite(store, icdb.TableImplementations, relstore.Eq("name", name()), func(r relstore.Row) {
				r["area"], r["delay"] = a, d
			})
		case 6:
			op = "direct delete implementations"
			_, err = store.Delete(icdb.TableImplementations, relstore.Eq("name", name()))
		case 7:
			op = "direct upsert estimators"
			err = store.Upsert(icdb.TableEstimators, relstore.Row{"impl": name(), "attr": attr(), "expr": src()})
		case 8:
			op = "direct rewrite estimators"
			s := src()
			err = rewrite(store, icdb.TableEstimators, relstore.Eq("impl", name()), func(r relstore.Row) {
				r["expr"] = s
			})
		case 9:
			op = "direct delete estimators"
			_, err = store.Delete(icdb.TableEstimators, relstore.And(relstore.Eq("impl", name()), relstore.Eq("attr", attr())))
		case 10:
			op = "direct upsert tool_params"
			err = store.Upsert(icdb.TableToolParams, relstore.Row{"tool": "icdb", "param": param(), "value": float64(rng.Intn(4))})
		case 11:
			op = "direct rewrite tool_params"
			v := float64(rng.Intn(4))
			err = rewrite(store, icdb.TableToolParams, relstore.Eq("param", param()), func(r relstore.Row) {
				r["value"] = v
			})
		case 12:
			op = "direct delete tool_params"
			_, err = store.Delete(icdb.TableToolParams, relstore.Eq("param", param()))
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		by[op]++
		checkAgainstFullScan(t, db, rng, fmt.Sprintf("step %d (%s)", step, op))
	}
	t.Logf("2000 steps agree with the full scan: %v", by)
}

// rewrite is a predicate update made directly through the store: each
// row of table matching p is read, changed by fn and upserted back.
func rewrite(store *relstore.Store, table string, p relstore.Pred, fn func(relstore.Row)) error {
	rows, err := store.Select(table, p)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fn(r)
		if err := store.Upsert(table, r); err != nil {
			return err
		}
	}
	return nil
}

// checkAgainstFullScan compares the engine's answers with a full-scan
// reference loaded from the relations as they stand.
func checkAgainstFullScan(t *testing.T, db *icdb.DB, rng *rand.Rand, at string) {
	t.Helper()
	ref, err := newFullScan(db)
	if err != nil {
		t.Fatalf("%s: reference: %v", at, err)
	}
	if wa, wd, err := db.RankWeights(); err != nil || wa != ref.wa || wd != ref.wd {
		t.Fatalf("%s: RankWeights = %g, %g, %v; tool_params rows say %g, %g", at, wa, wd, err, ref.wa, ref.wd)
	}
	byName := func(cs []icdb.Candidate) {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Impl.Name < cs[j].Impl.Name })
	}
	for _, q := range []icdb.Query{
		{Width: 1 + rng.Intn(64), Order: icdb.Order{Attr: icdb.OrderKeyCost}},
		{Order: icdb.Order{Attr: "delay", Desc: true}, Limit: 15},
		{},
	} {
		want, err := ref.query(q)
		if err != nil {
			t.Fatalf("%s: reference %+v: %v", at, q, err)
		}
		got, err := db.FindAll(q)
		if err != nil {
			t.Fatalf("%s: Find %+v: %v", at, q, err)
		}
		if q.Order.Attr == "" {
			byName(got)
			byName(want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v:\n engine    %v\n full scan %v", at, q, cands(got), cands(want))
		}
	}
}

// warmAll runs one query through every cache: the three stamped caches
// (a ranked find at a width) and the whole-relation frontier scope.
func warmAll(t *testing.T, db *icdb.DB) {
	t.Helper()
	if _, err := db.FindAll(icdb.Query{Width: 8, Limit: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ParetoFrontier(icdb.ParetoQuery{}); err != nil {
		t.Fatal(err)
	}
}

// TestStampedCachesRebuildOnlyTheirRelation: once warm, a query rebuilds
// nothing; after one direct write to a relation, the next queries rebuild
// that relation's cache exactly once and no other.
func TestStampedCachesRebuildOnlyTheirRelation(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Explore("gen_cnt", 4, 16, 4, nil, false); err != nil {
		t.Fatal(err)
	}
	warmAll(t, db)
	base := db.CacheRebuilds()
	warmAll(t, db)
	if got := db.CacheRebuilds(); !maps.Equal(got, base) {
		t.Fatalf("warm queries rebuilt: %v -> %v", base, got)
	}
	store := db.Store()
	for _, w := range []struct {
		table string
		write func() error
	}{
		{icdb.TableImplementations, func() error {
			return rewrite(store, icdb.TableImplementations, relstore.Eq("name", "add_ripple"), func(r relstore.Row) {
				r["area"] = 1.5
			})
		}},
		{icdb.TableEstimators, func() error {
			return store.Upsert(icdb.TableEstimators, relstore.Row{"impl": "add_ripple", "attr": "area", "expr": "area + width"})
		}},
		{icdb.TableToolParams, func() error {
			return store.Upsert(icdb.TableToolParams, relstore.Row{"tool": "icdb", "param": "area_weight", "value": 2.0})
		}},
		{icdb.TableExplorations, func() error {
			_, err := store.Delete(icdb.TableExplorations, relstore.Eq("bindings", "size=8"))
			return err
		}},
	} {
		if err := w.write(); err != nil {
			t.Fatal(err)
		}
		warmAll(t, db)
		warmAll(t, db)
		got := db.CacheRebuilds()
		for table, n := range got {
			want := base[table]
			if table == w.table {
				want++
			}
			if n != want {
				t.Errorf("after a direct write to %s: %s rebuilt %d time(s), want %d", w.table, table, n-base[table], want-base[table])
			}
		}
		base = got
	}
}

// TestStampedCachesNoRebuildUnderConcurrentWriters: after warm-up, two
// writers interleaving Generate, Explore, RegisterEstimator, ranked finds
// and frontier queries never force a cache rebuild — every registration
// reaches its cache as a delta, in store order.
func TestStampedCachesNoRebuildUnderConcurrentWriters(t *testing.T) {
	db := openTestDB(t)
	warmAll(t, db)
	base := db.CacheRebuilds()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				var err error
				switch rng.Intn(5) {
				case 0:
					_, _, err = db.Generate([]string{"gen_cnt", "gen_sub"}[rng.Intn(2)], map[string]int{"size": 1 + rng.Intn(48)})
				case 1:
					lo := 1 + rng.Intn(32)
					_, err = db.Explore("gen_sub", lo, lo+8, 4, nil, false)
				case 2:
					err = db.RegisterEstimator("add_ripple", "area", stampSources[rng.Intn(len(stampSources))])
				case 3:
					_, err = db.FindAll(icdb.Query{Functions: []genus.Function{genus.FuncADD}, Width: 1 + rng.Intn(32), Limit: 5})
				case 4:
					_, err = db.ParetoFrontier(icdb.ParetoQuery{})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if got := db.CacheRebuilds(); !maps.Equal(got, base) {
		t.Fatalf("concurrent writers forced rebuilds: %v after warm-up, %v at the end", base, got)
	}
}

// TestStampedEstimatorsLoseNoRacingRegistration races two registrations
// of one (implementation, attribute) round after round: the cache must
// end every round holding what the relation holds.
func TestStampedEstimatorsLoseNoRacingRegistration(t *testing.T) {
	db := openTestDB(t)
	im, err := db.ImplByName("add_ripple")
	if err != nil {
		t.Fatal(err)
	}
	budget := 2 * time.Second
	if testing.Short() {
		budget = 200 * time.Millisecond
	}
	rounds := 0
	for start := time.Now(); time.Since(start) < budget; rounds++ {
		go1 := make(chan struct{})
		var wg sync.WaitGroup
		for _, src := range []string{"area + 1", "area + 2"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-go1
				if err := db.RegisterEstimator("add_ripple", "area", src); err != nil {
					t.Error(err)
				}
			}()
		}
		close(go1)
		wg.Wait()
		srcs, err := db.Estimators("add_ripple")
		if err != nil {
			t.Fatal(err)
		}
		area, _, _, err := db.EstimateImpl("add_ripple", 8)
		if err != nil {
			t.Fatal(err)
		}
		want := im.Area + 1
		if srcs["area"] == "area + 2" {
			want = im.Area + 2
		}
		if area != want {
			t.Fatalf("round %d: relation holds %q but the cache estimates area %g", rounds, srcs["area"], area)
		}
	}
	t.Logf("%d rounds", rounds)
}

// TestStampedEstimatorsSeeForeignWrite: a direct write to an estimator
// row right after a registration of the same key is what the next width
// query evaluates.
func TestStampedEstimatorsSeeForeignWrite(t *testing.T) {
	db := openTestDB(t)
	q := icdb.Query{Functions: []genus.Function{genus.FuncADD}, Width: 8, Order: icdb.Order{Attr: "area"}}
	areaOf := func() float64 {
		t.Helper()
		cs, err := db.FindAll(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if c.Impl.Name == "add_ripple" {
				return c.Area
			}
		}
		t.Fatal("add_ripple missing from the ADD answer")
		return 0
	}
	areaOf() // warm the estimator cache
	if err := db.RegisterEstimator("add_ripple", "area", "area + 1"); err != nil {
		t.Fatal(err)
	}
	if a := areaOf(); a != 10 {
		t.Fatalf("after RegisterEstimator(area + 1): area %g, want 10", a)
	}
	if err := db.Store().Upsert(icdb.TableEstimators, relstore.Row{"impl": "add_ripple", "attr": "area", "expr": "area + 2"}); err != nil {
		t.Fatal(err)
	}
	if a := areaOf(); a != 11 {
		t.Fatalf("after a direct upsert of area + 2: area %g, want 11", a)
	}
}

// TestStampedWeightsFailOnCorruptSection: a tool_params section whose
// bytes no longer match its checksum fails every ranked query under a
// lazy open, instead of ranking with the default weights.
func TestStampedWeightsFailOnCorruptSection(t *testing.T) {
	db := openTestDB(t)
	if err := db.SetToolParam("icdb", "area_weight", 5); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cat.snap")
	if err := db.Store().SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("area_weight")); n != 1 {
		t.Fatalf("snapshot holds %d copies of the row's param, want 1", n)
	}
	data[bytes.Index(data, []byte("area_weight"))] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{Mode: relstore.OpenLazy})
	if err != nil {
		t.Fatal(err)
	}
	lz, err := icdb.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if wa, wd, err := lz.RankWeights(); err == nil {
		t.Fatalf("RankWeights over a corrupt tool_params section = %g, %g with no error", wa, wd)
	}
	cs, err := lz.FindAll(icdb.Query{Functions: []genus.Function{genus.FuncADD}, Limit: 1})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("ranked find over a corrupt tool_params section = %v, %v; want the checksum error", cands(cs), err)
	}
}

// parkFS is an in-memory filesystem whose next Sync, once armed, parks
// until released: a durable write stuck in its fsync, holding the store's
// write lock.
type parkFS struct {
	*faultfile.FS
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

type parkFile struct {
	relstore.File
	fs *parkFS
}

func (p *parkFS) Create(path string) (relstore.File, error) {
	f, err := p.FS.Create(path)
	return &parkFile{f, p}, err
}

func (p *parkFS) OpenAppend(path string) (relstore.File, error) {
	f, err := p.FS.OpenAppend(path)
	return &parkFile{f, p}, err
}

func (f *parkFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.parked <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestParkedFsyncBlocksNoCurrentCache: while a registration's durable
// upsert is parked inside its fsync — holding the store's write lock and
// its cache's writer mutex — stamp reads and every query served from a
// current cache still answer.
func TestParkedFsyncBlocksNoCurrentCache(t *testing.T) {
	fsys := &parkFS{FS: faultfile.New(), parked: make(chan struct{}), release: make(chan struct{})}
	d, err := relstore.OpenDurable("cat.snap", relstore.DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db, err := icdb.Open(d.Store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Explore("gen_cnt", 4, 16, 4, nil, false); err != nil {
		t.Fatal(err)
	}
	warmAll(t, db)

	fsys.armed.Store(true)
	wrote := make(chan error, 1)
	go func() {
		im := implAt(1)
		wrote <- db.RegisterImpl(im)
	}()
	<-fsys.parked
	answered := make(chan error, 1)
	go func() {
		answered <- func() error {
			for _, sc := range icdb.Schemas() {
				if _, err := d.Store.TableGeneration(sc.Table); err != nil {
					return err
				}
			}
			if _, err := db.FindAll(icdb.Query{Functions: []genus.Function{genus.FuncADD}, Width: 8, Limit: 3}); err != nil {
				return err
			}
			if _, _, err := db.RankWeights(); err != nil {
				return err
			}
			_, err := db.ParetoFrontier(icdb.ParetoQuery{})
			return err
		}()
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("reads of current caches waited for a parked fsync")
		defer func() { <-answered }() // they finish once the fsync is released
	}
	close(fsys.release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}
