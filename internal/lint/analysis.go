// Package lint is vmcu's domain-specific static-analysis framework: a
// deliberately small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface (Analyzer, Pass, Diagnostic)
// plus an offline package loader and a driver, used by the analyzers in
// internal/lint/analyzers and the cmd/vmcu-lint multichecker.
//
// Why not golang.org/x/tools itself? The repo is intentionally
// zero-dependency (go.mod has no requires), and the subset of the
// analysis API these checkers need — typed ASTs, a Report callback, and
// an analysistest-style golden runner — is a few hundred lines. The
// types below mirror x/tools' names and shapes one-to-one, so the suite
// can be ported onto the real framework by changing imports if the repo
// ever takes the dependency.
//
// The analyzers turn the repo's documented safety conventions into
// machine-checked gates. They are convention checkers, not proofs: the
// lock analysis, for example, is flow-insensitive (a function that calls
// mu.Lock anywhere is treated as holding mu). That approximation is the
// point — the invariants being guarded ("this counter block is only
// touched under Server.mu", "every field of Options reaches the cache
// key") fail in practice by omission, not by subtle interleavings, and
// an omission is exactly what a syntactic+typed check catches.
//
// # Annotation grammar
//
// The analyzers read a small comment grammar (see annot.go):
//
//	// guarded by <Type>.<field>     on a struct field (or a whole struct
//	//                               doc: every field is guarded)
//	// runs with <Type>.<field> held on a function: the caller provides
//	//                               the lock
//	// lint:nilsafe                  on a type: exported pointer methods
//	//                               must open with a nil-receiver guard
//	// lint:cachekey <Func>          on a struct: every field must be used
//	//                               inside <Func> in the same package
//	// lint:nokey <reason>           on a field: exempt from lint:cachekey
//	// lint:ledger                   on a struct: fields may only be
//	//                               written by the struct's own methods
//	//lint:allow <name>[,<name>] <reason>
//	//                               suppress findings of the named
//	//                               analyzers on this line (or, when the
//	//                               comment stands alone, the next line)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis: a named check with a Run function,
// mirroring golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// annotations. It must be a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation: first line is a one-line
	// summary.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the analysis being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Report delivers one finding. The driver wires suppression
	// (//lint:allow) and collection behind it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Inspect walks every file of the pass in depth-first order, calling f
// for each node; f returning false prunes the subtree (the ast.Inspect
// contract).
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// ReceiverType resolves a method declaration's receiver to its named
// type, dereferencing one pointer. Returns nil for plain functions and
// receivers that are not (pointers to) named types.
func (p *Pass) ReceiverType(fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := p.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	return namedOf(tv.Type)
}

// namedOf unwraps one level of pointer and returns the named type, or
// nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
