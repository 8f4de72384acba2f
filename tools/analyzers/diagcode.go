package main

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// diagcodeAnalyzer keeps the lint tiers' code registries honest.
// Each linter package (internal/analysis, internal/netlint,
// internal/bmlint, internal/hazver) declares a package-level `Codes`
// map from stable diagnostic codes (CHxxx/NLxxx/BMxxx/HZxxx) to
// one-line doc strings; those
// tables feed suppressions, the /metrics labels and the docs, so they
// must match what the passes actually emit. In any package declaring
// such a table, this analyzer flags:
//
//   - a code literal constructed in source but absent from the table
//     (an undocumented diagnostic the registry doesn't know about),
//   - a registered code never constructed anywhere in the package
//     (a dead table row — or a pass that silently stopped emitting),
//   - a registered code with an empty doc string,
//   - a retired code that is constructed again.
//
// Codes are append-only, so a code a pass stops emitting keeps its row
// and is marked retired with a line comment starting "retired" on the
// row; a retired row is exempt from the never-constructed check.
//
// Packages without a Codes table are exempt, as are _test.go files.
var diagcodeAnalyzer = &Analyzer{
	Name: "diagcode",
	Doc:  "check CHxxx/NLxxx/BMxxx/HZxxx diagnostic codes against the package's Codes registry",
	Run:  runDiagcode,
}

var diagCodeRe = regexp.MustCompile(`^(CH|NL|BM|HZ)[0-9]{3}$`)

func runDiagcode(pass *Pass) {
	type entry struct {
		pos     token.Pos
		doc     string
		retired bool
	}
	registered := map[string]entry{}
	var codesLit *ast.CompositeLit

	testFile := func(f *ast.File) bool {
		return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
	}

	// Locate the package-level Codes map literal and harvest its rows.
	for _, f := range pass.Files {
		if testFile(f) {
			continue
		}
		retiredLines := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "retired") {
					retiredLines[pass.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "Codes" || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					codesLit = cl
					for _, el := range cl.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := stringLit(kv.Key)
						if !ok || !diagCodeRe.MatchString(key) {
							continue
						}
						doc, _ := stringLit(kv.Value)
						registered[key] = entry{pos: kv.Key.Pos(), doc: doc,
							retired: retiredLines[pass.Fset.Position(kv.End()).Line]}
					}
				}
			}
		}
	}
	if codesLit == nil {
		return // no registry in this package; nothing to check against
	}

	// Every code literal constructed outside the table itself must be
	// a registered one.
	constructed := map[string]bool{}
	for _, f := range pass.Files {
		if testFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if lit.Pos() >= codesLit.Pos() && lit.End() <= codesLit.End() {
				return true // the registry's own rows don't count as uses
			}
			code, ok := unquote(lit.Value)
			if !ok || !diagCodeRe.MatchString(code) {
				return true
			}
			constructed[code] = true
			if e, ok := registered[code]; !ok {
				pass.Reportf(lit.Pos(),
					"diagnostic code %q constructed but not registered in this package's Codes table",
					code)
			} else if e.retired {
				pass.Reportf(lit.Pos(), "diagnostic code %q is retired and must not be constructed", code)
			}
			return true
		})
	}

	// Every table row must be live and documented. Report in source
	// order (the rows are sorted into position order by the framework).
	for code, e := range registered {
		if !constructed[code] && !e.retired {
			pass.Reportf(e.pos,
				"diagnostic code %q is registered in Codes but never constructed in this package",
				code)
		}
		if e.doc == "" {
			pass.Reportf(e.pos, "diagnostic code %q has an empty doc string", code)
		}
	}
}

// stringLit extracts the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	return unquote(lit.Value)
}

// unquote strips the quotes off a string literal's source text.
func unquote(src string) (string, bool) {
	s, err := strconv.Unquote(src)
	if err != nil {
		return "", false
	}
	return s, true
}
