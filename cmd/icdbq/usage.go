package main

import "strings"

// command describes one icdbq subcommand. The table below is the single
// source of truth for usage output: runtime usage errors are generated
// from it, and TestDocCommentMatchesUsage asserts the package doc
// comment in main.go lists exactly these synopses.
type command struct {
	name     string
	synopsis string
}

// commands returns the subcommand table in display order.
func commands() []command {
	return []command{
		{"impls", "icdbq impls"},
		{"query", "icdbq query <function>... [-where <expr>]"},
		{"cql", `icdbq cql "<command>" | icdbq cql -i`},
		{"connect", `icdbq connect [-addr ` + defaultAddr + `] [-secret token] [-retries 3] [-c "<command>"]`},
		{"expand", "icdbq expand <design.iif|-> [param=value...]"},
		{"generate", "icdbq generate <generator|component> param=value..."},
		{"estimate", "icdbq estimate <impl> width=<bits> [area|delay|cost]"},
		{"export", "icdbq export <catalog>"},
		{"import", "icdbq import <file.json> <catalog>"},
	}
}

// commandNames renders the subcommand names for "unknown command"
// errors: "impls, query, ..., export, or import".
func commandNames() string {
	cs := commands()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.name
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

// usageText renders the full usage block, one synopsis per line.
func usageText() string {
	var sb strings.Builder
	sb.WriteString("usage:\n")
	for _, c := range commands() {
		sb.WriteString("  " + c.synopsis + "\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}
