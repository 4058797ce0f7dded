package icdb

// ImplsScan — the cache-served, insertion-ordered listing behind CQL
// "show impls" — against Impls, which decodes the relation's rows.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// scanImpls materializes an ImplsScan.
func scanImpls(t *testing.T, db *DB) []Impl {
	t.Helper()
	var out []Impl
	if err := db.ImplsScan(func(im *Impl) bool {
		out = append(out, im.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkScanEqualsImpls(t *testing.T, db *DB, when string) {
	t.Helper()
	want, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}
	got := scanImpls(t, db)
	if len(got) != len(want) {
		t.Fatalf("%s: ImplsScan yields %d implementations, Impls %d", when, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: element %d differs:\n scan  %+v\n impls %+v", when, i, got[i], want[i])
		}
	}
}

func TestImplsScanEqualsImpls(t *testing.T) {
	db := openDB(t)
	checkScanEqualsImpls(t, db, "cache built from the relation")

	// Registered into a live cache, with the function set out of
	// canonical order: the cache must hold what the stored row decodes to.
	multi := testImpl("multi_fn")
	multi.Functions = []genus.Function{genus.FuncSTORE, genus.FuncLOAD, genus.FuncSTORAGE}
	for _, im := range []Impl{testImpl("scan_a"), multi, testImpl("scan_b")} {
		if err := db.RegisterImpl(im); err != nil {
			t.Fatal(err)
		}
	}
	checkScanEqualsImpls(t, db, "after registrations into a live cache")

	// Re-registering a name changes its values, not its place.
	tuned := testImpl("scan_a")
	tuned.Area, tuned.Style = 42, "tuned"
	if err := db.RegisterImpl(tuned); err != nil {
		t.Fatal(err)
	}
	checkScanEqualsImpls(t, db, "after re-registering a name")
	if got := scanImpls(t, db); got[len(got)-3].Name != "scan_a" || got[len(got)-3].Area != 42 {
		t.Fatalf("re-registered implementation moved or kept old values: %+v", got[len(got)-3])
	}

	db.InvalidateCaches()
	checkScanEqualsImpls(t, db, "after a cache rebuild")

	// visit returning false stops the stream.
	seen := 0
	if err := db.ImplsScan(func(*Impl) bool { seen++; return seen < 3 }); err != nil || seen != 3 {
		t.Fatalf("early stop: visited %d (err %v), want 3", seen, err)
	}
}

// TestImplsScanConcurrentRegister runs scans against two registering
// writers (CI runs it under -race): every scan sees a prefix of the
// final insertion order — its pinned snapshot — and once the writers
// are done the cache and the relation agree element for element.
func TestImplsScanConcurrentRegister(t *testing.T) {
	db := openDB(t)
	const writers, perWriter = 2, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.RegisterImpl(testImpl(fmt.Sprintf("w%d_%03d", w, i))); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 9 { // re-register an earlier name now and then
					tuned := testImpl(fmt.Sprintf("w%d_%03d", w, i-5))
					tuned.Area = float64(i)
					if err := db.RegisterImpl(tuned); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	var scans [][]string
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		var names []string
		if err := db.ImplsScan(func(im *Impl) bool {
			names = append(names, im.Name)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		scans = append(scans, names)
	}

	checkScanEqualsImpls(t, db, "after concurrent registration")
	final := scans[len(scans)-1]
	for _, names := range scans {
		if len(names) > len(final) || !reflect.DeepEqual(names, final[:len(names)]) {
			t.Fatalf("a scan of %d implementations is not a prefix of the final order", len(names))
		}
	}
}

// TestOpenSeedsDeterministically: a fresh catalog is the same bytes
// every time — the builtin rows are seeded in a fixed order, never in
// map order.
func TestOpenSeedsDeterministically(t *testing.T) {
	dir := t.TempDir()
	fresh := func(name string) []byte {
		t.Helper()
		store := relstore.New()
		if _, err := Open(store); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := store.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := fresh("first.snap")
	for i := 0; i < 10; i++ {
		if again := fresh("again.snap"); !bytes.Equal(first, again) {
			t.Fatalf("fresh catalog %d differs from the first (%d vs %d bytes)", i+2, len(again), len(first))
		}
	}
}
