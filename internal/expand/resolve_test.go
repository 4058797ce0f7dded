package expand

import (
	"strings"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
)

// regAdder registers a trivial single-bit adder implementation covering
// the given width range.
func regAdder(t *testing.T, db *icdb.DB, name string, wmin, wmax int, area float64) {
	t.Helper()
	src := "NAME: " + name + "; PARAMETER: size; INORDER: a, b; OUTORDER: s; { s = a (+) b; }"
	if err := db.RegisterImpl(icdb.Impl{
		Name:      name,
		Component: genus.CompAdderSubtractor,
		Style:     "test",
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  wmin, WidthMax: wmax, Stages: 0,
		Area: area, Delay: 1,
		Params: []string{"size"},
		Source: src,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWidthAwareCallResolution: two #calls sharing one name but
// requesting different sizes must not share a resolution — the second
// call re-resolves against implementations covering its width (the
// ROADMAP's width-aware call resolution, range-recovery case).
func TestWidthAwareCallResolution(t *testing.T) {
	db := newDB(t)
	// narrow_add is the cheapest ADD but only stretches to 4 bits;
	// wide_add covers the rest. (The builtin add_ripple, cost 15, covers
	// [1,64] and must lose the ranking to both.)
	regAdder(t, db, "narrow_add", 1, 4, 1)
	regAdder(t, db, "wide_add", 5, 64, 2)

	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p, q, r;
{
  #ADD(4, x, y, p);
  #ADD(16, x, y, q);
  #ADD(2, x, y, r);
}
`
	net, err := New(db).Expand(mustParse(t, top), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	insts, err := db.Instances()
	if err != nil {
		t.Fatal(err)
	}
	uses := make(map[string]int)
	for _, in := range insts {
		uses[in.Impl] += in.Uses
	}
	// Calls 1 and 3 fit narrow_add; call 2 must recover onto wide_add
	// instead of failing on narrow_add's range.
	if uses["narrow_add"] != 2 || uses["wide_add"] != 1 {
		t.Errorf("instance uses = %v, want narrow_add:2 wide_add:1", uses)
	}
}

// TestWidthAwareResolutionByComponentName: the same recovery through the
// component-type resolution path.
func TestWidthAwareResolutionByComponentName(t *testing.T) {
	db := newDB(t)
	regAdder(t, db, "narrow_add", 1, 4, 1)
	regAdder(t, db, "wide_add", 5, 64, 2)
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p;
{
  #Adder_Subtractor(16, x, y, p);
}
`
	if _, err := New(db).Expand(mustParse(t, top), nil); err != nil {
		t.Fatalf("component-path width recovery failed: %v", err)
	}
	insts, _ := db.Instances()
	if len(insts) != 1 || insts[0].Impl != "wide_add" {
		t.Errorf("instances = %+v, want one wide_add", insts)
	}
}

// TestWidthRecoveryRequiresSameParamList: recovery rebinds evaluated
// argument values positionally, so an alternate implementation whose
// parameters differ in name or order must be rejected (error, not a
// silent mis-binding).
func TestWidthRecoveryRequiresSameParamList(t *testing.T) {
	db := newDB(t)
	regAdder(t, db, "narrow_add", 1, 4, 1)
	// The only wide ADD declares (stages, size) — positionally
	// incompatible with narrow_add's (size).
	if err := db.RegisterImpl(icdb.Impl{
		Name:      "wide_odd",
		Component: genus.CompAdderSubtractor,
		Style:     "test",
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  5, WidthMax: 64, Stages: 0,
		Area: 2, Delay: 1,
		Params: []string{"stages", "size"},
		Source: "NAME: wide_odd; PARAMETER: stages, size; INORDER: a, b; OUTORDER: s; { s = a (+) b; }",
	}); err != nil {
		t.Fatal(err)
	}
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p;
{
  #ADD(16, x, y, p);
}
`
	_, err := New(db).Expand(mustParse(t, top), nil)
	if err == nil || !strings.Contains(err.Error(), "width range") {
		t.Fatalf("err = %v, want width range error (no positional mis-binding)", err)
	}
}

// TestExactNameStaysAuthoritative: naming an implementation that cannot
// stretch to the requested size is an error, never a silent substitution.
func TestExactNameStaysAuthoritative(t *testing.T) {
	db := newDB(t)
	regAdder(t, db, "narrow_add", 1, 4, 1)
	regAdder(t, db, "wide_add", 5, 64, 2)
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p;
{
  #narrow_add(16, x, y, p);
}
`
	_, err := New(db).Expand(mustParse(t, top), nil)
	if err == nil || !strings.Contains(err.Error(), "width range") {
		t.Fatalf("err = %v, want width range error", err)
	}
	// No instance may be recorded for the failed call.
	insts, _ := db.Instances()
	if len(insts) != 0 {
		t.Errorf("failed call left instances: %+v", insts)
	}
}

// regSubGenerator registers a 1-bit-port subtractor-shaped generator for
// the ADD/SUB tests (source ports: a, b -> s, like regAdder's impls).
func regSubGenerator(t *testing.T, db *icdb.DB, name string, fn genus.Function, wmin, wmax int, areaExpr string) {
	t.Helper()
	src := "NAME: " + name + "; PARAMETER: size; INORDER: a, b; OUTORDER: s; { s = a (+) b; }"
	if err := db.RegisterGenerator(icdb.Generator{
		Name:      name,
		Component: genus.CompAdderSubtractor,
		Style:     "test",
		Functions: []genus.Function{fn},
		WidthMin:  wmin, WidthMax: wmax, Stages: 0,
		Params:    []string{"size"},
		AreaExpr:  areaExpr,
		DelayExpr: "1",
		Source:    src,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWidthFilterPrefersParamCompatibleCandidate: with several
// implementations covering the requested width, resolution must pick
// the cheapest one whose parameter list matches the prototype — not
// error out because the overall-cheapest candidate declares different
// parameters (the pre-PR 5 recovery did the latter).
func TestWidthFilterPrefersParamCompatibleCandidate(t *testing.T) {
	db := newDB(t)
	regAdder(t, db, "narrow_add", 1, 4, 1)
	// wide_odd is the cheapest 16-covering ADD but positionally
	// incompatible; wide_add matches and must win.
	if err := db.RegisterImpl(icdb.Impl{
		Name:      "wide_odd",
		Component: genus.CompAdderSubtractor,
		Style:     "test",
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  5, WidthMax: 64, Stages: 0,
		Area: 2, Delay: 1,
		Params: []string{"stages", "size"},
		Source: "NAME: wide_odd; PARAMETER: stages, size; INORDER: a, b; OUTORDER: s; { s = a (+) b; }",
	}); err != nil {
		t.Fatal(err)
	}
	regAdder(t, db, "wide_add", 5, 64, 3)
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p;
{
  #ADD(16, x, y, p);
}
`
	if _, err := New(db).Expand(mustParse(t, top), nil); err != nil {
		t.Fatalf("param-compatible recovery failed: %v", err)
	}
	insts, _ := db.Instances()
	if len(insts) != 1 || insts[0].Impl != "wide_add" {
		t.Errorf("instances = %+v, want one wide_add", insts)
	}
}

// TestResolutionRanksByEstimatedCostAtWidth: candidates are ranked by
// their cost estimated at the call's width, so a per-bit-cheap but
// width-scaling implementation loses to a flat one at large sizes.
func TestResolutionRanksByEstimatedCostAtWidth(t *testing.T) {
	db := newDB(t)
	regAdder(t, db, "scaling_add", 1, 64, 1) // per-bit cheapest...
	if err := db.RegisterEstimator("scaling_add", "area", "area * width"); err != nil {
		t.Fatal(err)
	}
	regAdder(t, db, "flat_add", 1, 64, 10) // ...but flat_add is 10 at any width
	if err := db.RegisterEstimator("flat_add", "area", "area"); err != nil {
		t.Fatal(err)
	}
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p, q;
{
  #ADD(2, x, y, p);
  #ADD(32, x, y, q);
}
`
	if _, err := New(db).Expand(mustParse(t, top), nil); err != nil {
		t.Fatal(err)
	}
	insts, _ := db.Instances()
	uses := make(map[string]int)
	for _, in := range insts {
		uses[in.Impl] += in.Uses
	}
	// At size 2 scaling_add costs 2+1 < 11; at size 32 it costs 32+1 > 11.
	if uses["scaling_add"] != 1 || uses["flat_add"] != 1 {
		t.Errorf("instance uses = %v, want scaling_add:1 flat_add:1", uses)
	}
}

// TestQueryResolvedCallRejectsSizeBelowOne: a query-resolved #call bound
// to size 0 (or less) is an error naming the width, not a width-free
// resolution — for size 0 too, which the engine reads as "no width".
func TestQueryResolvedCallRejectsSizeBelowOne(t *testing.T) {
	for size, want := range map[string]string{
		"0":  "iif: 6:3: #ADD: icdb: at width 0: width must be at least 1",
		"-2": "iif: 6:3: #ADD: icdb: at width -2: width must be at least 1",
	} {
		top := `
NAME: top;
INORDER: x, y;
OUTORDER: p;
{
  #ADD(` + size + `, x, y, p);
}
`
		_, err := New(newDB(t)).Expand(mustParse(t, top), nil)
		if err == nil || err.Error() != want {
			t.Errorf("size %s: err = %v, want %s", size, err, want)
		}
	}
}

// TestGeneratorFallbackResolution: a #call naming a function with no
// stored implementation resolves through a registered generator, which
// synthesizes, registers, and splices a width-pinned implementation —
// once per distinct width.
func TestGeneratorFallbackResolution(t *testing.T) {
	db := newDB(t)
	regSubGenerator(t, db, "gsub", genus.FuncSUB, 1, 64, "2 * width")
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p, q, r;
{
  #SUB(8, x, y, p);
  #SUB(8, x, y, q);
  #SUB(4, x, y, r);
}
`
	if _, err := New(db).Expand(mustParse(t, top), nil); err != nil {
		t.Fatalf("generator fallback failed: %v", err)
	}
	// Two distinct widths -> two generated implementations; the repeated
	// size-8 call reuses the first.
	for name, wantUses := range map[string]int{"gsub_size_8": 2, "gsub_size_4": 1} {
		im, err := db.ImplByName(name)
		if err != nil {
			t.Fatalf("generated %s not registered: %v", name, err)
		}
		if im.WidthMin != im.WidthMax {
			t.Errorf("%s width range = [%d,%d], want pinned", name, im.WidthMin, im.WidthMax)
		}
		insts, _ := db.Instances()
		got := 0
		for _, in := range insts {
			if in.Impl == name {
				got += in.Uses
			}
		}
		if got != wantUses {
			t.Errorf("%s uses = %d, want %d", name, got, wantUses)
		}
	}
}

// TestGeneratorFallbackPicksCheapestAtWidth: among several matching
// generators, the one whose estimated cost at the binding point is
// lowest wins.
func TestGeneratorFallbackPicksCheapestAtWidth(t *testing.T) {
	db := newDB(t)
	regSubGenerator(t, db, "gsub_scaling", genus.FuncSUB, 1, 64, "3 * width")
	regSubGenerator(t, db, "gsub_flat", genus.FuncSUB, 1, 64, "30")
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p, q;
{
  #SUB(2, x, y, p);
  #SUB(32, x, y, q);
}
`
	if _, err := New(db).Expand(mustParse(t, top), nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gsub_scaling_size_2", "gsub_flat_size_32"} {
		if _, err := db.ImplByName(want); err != nil {
			t.Errorf("expected generated impl %s: %v", want, err)
		}
	}
}

// TestStoredImplStillBeatsGeneratorWhenItCovers: generators are a
// fallback — a stored implementation covering the width is preferred.
func TestStoredImplStillBeatsGeneratorWhenItCovers(t *testing.T) {
	db := newDB(t)
	regSubGenerator(t, db, "gsub", genus.FuncSUB, 1, 64, "1")
	if err := db.RegisterImpl(icdb.Impl{
		Name:      "stored_sub",
		Component: genus.CompAdderSubtractor,
		Style:     "test",
		Functions: []genus.Function{genus.FuncSUB},
		WidthMin:  1, WidthMax: 64, Stages: 0,
		Area: 100, Delay: 100, // expensive, but stored wins over generating
		Params: []string{"size"},
		Source: "NAME: stored_sub; PARAMETER: size; INORDER: a, b; OUTORDER: s; { s = a (+) b; }",
	}); err != nil {
		t.Fatal(err)
	}
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p;
{
  #SUB(8, x, y, p);
}
`
	if _, err := New(db).Expand(mustParse(t, top), nil); err != nil {
		t.Fatal(err)
	}
	insts, _ := db.Instances()
	if len(insts) != 1 || insts[0].Impl != "stored_sub" {
		t.Errorf("instances = %+v, want one stored_sub", insts)
	}
}

// TestBrokenEstimatorSurfacesAsError: a registered estimator that fails
// to evaluate must abort resolution with its error — not silently
// demote the stored implementation to a generator fallback or a
// "no implementation covers" message.
func TestBrokenEstimatorSurfacesAsError(t *testing.T) {
	db := newDB(t)
	regAdder(t, db, "only_add", 1, 64, 1)
	// Parses fine, fails at evaluation: "widht" is not an attribute.
	if err := db.RegisterEstimator("only_add", "area", "area * widht"); err != nil {
		t.Fatal(err)
	}
	const top = `
NAME: top;
INORDER: x, y;
OUTORDER: p;
{
  #ADD(8, x, y, p);
}
`
	_, err := New(db).Expand(mustParse(t, top), nil)
	if err == nil || !strings.Contains(err.Error(), "widht") {
		t.Fatalf("err = %v, want the estimator's unknown-attribute error", err)
	}
}
