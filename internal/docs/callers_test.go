package docs

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// callerCheckedPackages are the directories (under internal/) whose
// exported names must each have a non-test caller somewhere in the tree,
// or a reason in uncalled.txt. relstore/faultfile and wire/faultconn are
// left out: they are test-support packages (the fault-injecting
// filesystem and connection the crash-torture and hostile-client suites
// run on), so tests are their only callers by design.
var callerCheckedPackages = []string{"icdb", "cql", "relstore", "wire", "expand", "eqn", "genus", "iif"}

// deletedNames were folded into icdb.Query and DB.Find (the fourteen
// Query* variants and the pseudo-constraints) or removed as dead surface.
// They must not come back, with or without a caller.
var deletedNames = []string{
	"icdb.DB.QueryByFunction", "icdb.DB.QueryByFunctions",
	"icdb.DB.QueryByFunctionTopK", "icdb.DB.QueryByFunctionsTopK",
	"icdb.DB.QueryByFunctionsOrdered", "icdb.DB.QueryByFunctionsOfTypeOrdered",
	"icdb.DB.QueryByComponent", "icdb.DB.QueryByComponentTopK",
	"icdb.DB.QueryByComponentOrdered", "icdb.DB.QueryOrdered",
	"icdb.DB.QueryByFunctionScan", "icdb.DB.QueryByFunctionsScan",
	"icdb.DB.QueryByComponentScan", "icdb.DB.QueryScan",
	"icdb.AtWidth", "icdb.Weights", "icdb.MustWhere", "icdb.MaxArea", "icdb.MaxDelay",
	"cql.FindQuery.Ranked", "cql.FindQuery.Candidates",
}

// TestExportedIdentifiersHaveCallers keeps the checked packages free of
// dead surface. An exported top-level name (function, type, constant,
// variable, or method of an exported type) counts as called when its
// identifier appears, bare or as a selector, anywhere in a non-test .go
// file of the tree — cmd/ and bench/ included — other than its own
// declaration. The test fails for an uncalled name missing from
// uncalled.txt, for a listed name that now has a caller or no longer
// exists, and for any of deletedNames declared again.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	used := identsInUse(t, "../..")
	declared := map[string]bool{} // "pkg.Name" or "pkg.Type.Method" -> called
	for _, pkg := range callerCheckedPackages {
		for _, path := range sourceFiles(t, filepath.Join("..", pkg)) {
			for key, name := range exportedDecls(t, pkg, path) {
				declared[key] = used[name]
			}
		}
	}
	listed := readUncalled(t, "uncalled.txt")
	for key, called := range declared {
		_, ok := listed[key]
		switch {
		case !called && !ok:
			t.Errorf("%s has no non-test caller: call it, delete it, or list it in uncalled.txt with a reason", key)
		case called && ok:
			t.Errorf("%s is listed in uncalled.txt but now has a caller: drop the entry", key)
		}
	}
	for key := range listed {
		if _, ok := declared[key]; !ok {
			t.Errorf("uncalled.txt lists %s, which no longer exists: drop the entry", key)
		}
	}
	for _, key := range deletedNames {
		if _, ok := declared[key]; ok {
			t.Errorf("%s was deleted in favour of icdb.Query/DB.Find and must not come back", key)
		}
	}
}

// sourceFiles lists the non-test .go files of one directory.
func sourceFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var out []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			out = append(out, filepath.Join(dir, n))
		}
	}
	return out
}

// exportedDecls maps the key of every exported top-level declaration in
// one file to its bare identifier.
func exportedDecls(t *testing.T, pkg, path string) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	out := map[string]string{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				key = pkg + "." + receiverName(d) + "." + d.Name.Name
			}
			out[key] = d.Name.Name
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out[pkg+"."+s.Name.Name] = s.Name.Name
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out[pkg+"."+n.Name] = n.Name
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName is the type name of a method's receiver.
func receiverName(d *ast.FuncDecl) string {
	x := d.Recv.List[0].Type
	for {
		switch y := x.(type) {
		case *ast.StarExpr:
			x = y.X
		case *ast.IndexExpr:
			x = y.X
		case *ast.Ident:
			return y.Name
		default:
			return ""
		}
	}
}

// identsInUse collects every identifier of the non-test Go files under
// root, skipping the names declarations introduce (top-level functions,
// methods, types, constants, variables, and struct fields): what is left
// are uses. Hidden and underscore directories and testdata are skipped,
// as the go tool does.
func identsInUse(t *testing.T, root string) map[string]bool {
	t.Helper()
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		decl := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decl[d.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decl[s.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decl[n] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, fld := range x.Fields.List {
					for _, n := range fld.Names {
						decl[n] = true
					}
				}
			case *ast.Ident:
				if !decl[x] {
					used[x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return used
}

// readUncalled parses the allow-list: one "pkg.Name  reason" per line,
// blank lines and #-comments ignored. Every entry needs a reason.
func readUncalled(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, line, key)
		}
		if _, dup := out[key]; dup {
			t.Errorf("%s:%d: %s listed twice", path, line, key)
		}
		out[key] = strings.TrimSpace(reason)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
