package icdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"icdb/internal/relstore"
)

// Instance is one row of the instances relation: a concrete
// instantiation of a parameterized implementation with actual parameter
// bindings. The paper records instances so that repeated queries for the
// same (implementation, bindings) pair reuse the already-derived
// instance instead of re-expanding it.
type Instance struct {
	ID       int
	Impl     string
	Bindings map[string]int
	// Design names the design that first instantiated this instance.
	Design string
	// Uses counts how many instantiation requests resolved to this row.
	Uses int
}

// BindingsKey canonicalizes parameter bindings ("size=4,stages=2",
// sorted by name) for use as part of the instances primary key.
func BindingsKey(bindings map[string]int) string {
	parts := make([]string, 0, len(bindings))
	for k, v := range bindings {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// ParseBindingsKey inverts BindingsKey.
func ParseBindingsKey(key string) (map[string]int, error) {
	out := make(map[string]int)
	if key == "" {
		return out, nil
	}
	for _, part := range strings.Split(key, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("icdb: bad binding %q", part)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("icdb: bad binding %q: %w", part, err)
		}
		out[name] = v
	}
	return out, nil
}

// Instantiate records that design instantiated implementation implName
// with the given parameter bindings. If an instance with identical
// bindings already exists it is reused (its use count is incremented and
// reused is true); otherwise a new instance row is created. The bindings
// must cover exactly the implementation's declared parameters.
func (db *DB) Instantiate(design, implName string, bindings map[string]int) (inst Instance, reused bool, err error) {
	im, err := db.ImplByName(implName)
	if err != nil {
		return Instance{}, false, err
	}
	if len(bindings) != len(im.Params) {
		return Instance{}, false, fmt.Errorf("icdb: %s: got %d binding(s), want parameters %v", implName, len(bindings), im.Params)
	}
	for _, p := range im.Params {
		if _, ok := bindings[p]; !ok {
			return Instance{}, false, fmt.Errorf("icdb: %s: missing binding for parameter %q", implName, p)
		}
	}
	key := BindingsKey(bindings)

	db.mu.Lock()
	defer db.mu.Unlock()
	// (impl, bindings) is the instances primary key: the reuse probe is a
	// point lookup, the use-count bump one upsert of the row it read.
	if r, err := db.store.Get(TableInstances, implName, key); err == nil {
		r["uses"] = asInt(r["uses"]) + 1
		if err := db.store.Upsert(TableInstances, r); err != nil {
			return Instance{}, false, err
		}
		return Instance{
			ID:       asInt(r["id"]),
			Impl:     implName,
			Bindings: bindings,
			Design:   asString(r["design"]),
			Uses:     asInt(r["uses"]),
		}, true, nil
	}
	// IDs are allocated monotonically from the stored maximum (computed
	// once per DB handle), so they stay unique even if rows were deleted
	// through the raw store.
	if db.nextInstID == 0 {
		db.nextInstID = 1
		if err := db.store.Scan(TableInstances, nil, func(r relstore.Row) bool {
			if v := asInt(r["id"]); v >= db.nextInstID {
				db.nextInstID = v + 1
			}
			return true
		}); err != nil {
			return Instance{}, false, err
		}
	}
	id := db.nextInstID
	db.nextInstID++
	err = db.store.Insert(TableInstances, relstore.Row{
		"id": id, "impl": implName, "bindings": key, "design": design, "uses": 1,
	})
	if err != nil {
		return Instance{}, false, err
	}
	return Instance{ID: id, Impl: implName, Bindings: bindings, Design: design, Uses: 1}, false, nil
}

// Instances lists every recorded instance in creation order.
func (db *DB) Instances() ([]Instance, error) {
	rows, err := db.store.Select(TableInstances, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Instance, 0, len(rows))
	for _, r := range rows {
		b, err := ParseBindingsKey(asString(r["bindings"]))
		if err != nil {
			return nil, err
		}
		out = append(out, Instance{
			ID:       asInt(r["id"]),
			Impl:     asString(r["impl"]),
			Bindings: b,
			Design:   asString(r["design"]),
			Uses:     asInt(r["uses"]),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
