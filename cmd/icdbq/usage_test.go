package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestDocCommentMatchesUsage keeps the package doc comment in main.go
// and the runtime usage output generated from the same command table:
// every synopsis must appear verbatim as a doc-comment usage line, and
// the doc comment must not list commands the table does not know.
func TestDocCommentMatchesUsage(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse main.go: %v", err)
	}
	if f.Doc == nil {
		t.Fatal("main.go has no package doc comment")
	}
	doc := f.Doc.Text()

	var docUsage []string
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "icdbq ") {
			docUsage = append(docUsage, line)
		}
	}
	cmds := commands()
	if len(docUsage) != len(cmds) {
		t.Fatalf("doc comment lists %d usage lines %q, command table has %d",
			len(docUsage), docUsage, len(cmds))
	}
	for i, c := range cmds {
		if docUsage[i] != c.synopsis {
			t.Errorf("doc usage line %d = %q, want %q (regenerate from the table in usage.go)",
				i, docUsage[i], c.synopsis)
		}
	}
}

// TestUsageTextNamesEveryCommand checks the generated usage block and
// the unknown-command vocabulary stay complete.
func TestUsageTextNamesEveryCommand(t *testing.T) {
	usage := usageText()
	names := commandNames()
	for _, c := range commands() {
		if !strings.Contains(usage, c.synopsis) {
			t.Errorf("usageText misses %q", c.synopsis)
		}
		if !strings.Contains(names, c.name) {
			t.Errorf("commandNames misses %q", c.name)
		}
	}
}
