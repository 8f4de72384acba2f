package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// runOnTestdata typechecks every .go file under testdata/<dir> (using
// the source importer — no export data is available in a test binary)
// and runs one analyzer over the package, returning "line: message"
// findings plus the `// want` expectations harvested from comments.
func runOnTestdata(t *testing.T, dir, pkgPath string, a *Analyzer) (got []diagnostic, wants map[int][]*regexp.Regexp, fset *token.FileSet) {
	t.Helper()
	pattern := filepath.Join("testdata", dir, "*.go")
	names, err := filepath.Glob(pattern)
	if err != nil || len(names) == 0 {
		t.Fatalf("no test sources match %s: %v", pattern, err)
	}
	sort.Strings(names)

	fset = token.NewFileSet()
	var files []*ast.File
	wants = map[int][]*regexp.Regexp{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pat, ok := wantPattern(c.Text)
				if !ok {
					continue
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", fset.Position(c.Pos()), pat, err)
				}
				line := fset.Position(c.Pos()).Line
				wants[line] = append(wants[line], re)
			}
		}
	}

	tc := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := typeInfo()
	pkg, err := tc.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	got = runAnalyzers(fset, files, pkg, info, pkgPath, []*Analyzer{a})
	return got, wants, fset
}

// wantPattern extracts the backquoted regexp from a `// want ...` comment.
func wantPattern(comment string) (string, bool) {
	body := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(body, "want ") {
		return "", false
	}
	body = strings.TrimSpace(strings.TrimPrefix(body, "want"))
	if len(body) >= 2 && body[0] == '`' && body[len(body)-1] == '`' {
		return body[1 : len(body)-1], true
	}
	return "", false
}

// checkWants matches findings against expectations one-to-one per line.
func checkWants(t *testing.T, got []diagnostic, wants map[int][]*regexp.Regexp, fset *token.FileSet) {
	t.Helper()
	unmatched := map[int][]*regexp.Regexp{}
	for line, res := range wants {
		unmatched[line] = append([]*regexp.Regexp(nil), res...)
	}
	for _, d := range got {
		pos := fset.Position(d.pos)
		res := unmatched[pos.Line]
		hit := -1
		for i, re := range res {
			if re.MatchString(d.message) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("unexpected finding at %s: %s", pos, d.message)
			continue
		}
		unmatched[pos.Line] = append(res[:hit], res[hit+1:]...)
	}
	for line, res := range unmatched {
		for _, re := range res {
			t.Errorf("missing finding at line %d matching %q", line, re)
		}
	}
}

func TestMapiterFires(t *testing.T) {
	got, wants, fset := runOnTestdata(t, "mapiter", "example.com/mapitertest", mapiterAnalyzer)
	if len(got) == 0 {
		t.Fatal("mapiter produced no findings on its testdata")
	}
	checkWants(t, got, wants, fset)
}

func TestGostmtFires(t *testing.T) {
	got, wants, fset := runOnTestdata(t, "gostmt", "example.com/gostmttest", gostmtAnalyzer)
	if len(got) == 0 {
		t.Fatal("gostmt produced no findings on its testdata")
	}
	checkWants(t, got, wants, fset)
	// The _test.go file has a naked go statement; none of the findings
	// may point into it.
	for _, d := range got {
		if strings.HasSuffix(fset.Position(d.pos).Filename, "_test.go") {
			t.Errorf("gostmt flagged a test file: %s", fset.Position(d.pos))
		}
	}
}

func TestGostmtExemptsParallel(t *testing.T) {
	got, _, fset := runOnTestdata(t, "parallel", "balsabm/internal/parallel", gostmtAnalyzer)
	for _, d := range got {
		t.Errorf("gostmt fired inside internal/parallel: %s: %s", fset.Position(d.pos), d.message)
	}
}

func TestTimenowFires(t *testing.T) {
	// Under a deterministic package path every clock read must fire
	// (three want comments), nothing else may, and the _test.go file's
	// reads are exempt.
	got, wants, fset := runOnTestdata(t, "timenow", "balsabm/internal/hfmin", timenowAnalyzer)
	if len(got) != 3 {
		t.Fatalf("timenow produced %d findings on its testdata, want 3", len(got))
	}
	checkWants(t, got, wants, fset)
	for _, d := range got {
		if strings.HasSuffix(fset.Position(d.pos).Filename, "_test.go") {
			t.Errorf("timenow flagged a test file: %s", fset.Position(d.pos))
		}
	}
}

func TestTimenowExemptsNonDeterministicPackages(t *testing.T) {
	// The same sources under a path outside the deterministic list —
	// e.g. internal/flow, which owns the stopwatches — must stay silent.
	got, _, fset := runOnTestdata(t, "timenow", "balsabm/internal/flow", timenowAnalyzer)
	for _, d := range got {
		t.Errorf("timenow fired outside the deterministic packages: %s: %s", fset.Position(d.pos), d.message)
	}
}

func TestMapiterIgnoresGoroutineFreeLoops(t *testing.T) {
	// The testdata file's "fine" loops must stay silent: every finding
	// must sit on a line that carries a want comment.
	got, wants, fset := runOnTestdata(t, "mapiter", "example.com/mapitertest", mapiterAnalyzer)
	for _, d := range got {
		if len(wants[fset.Position(d.pos).Line]) == 0 {
			t.Errorf("finding on un-annotated line %s: %s", fset.Position(d.pos), d.message)
		}
	}
}

func TestParseEnableFlag(t *testing.T) {
	cases := []struct {
		arg  string
		name string
		val  bool
		ok   bool
	}{
		{"-mapiter", "mapiter", true, true},
		{"-gostmt=false", "gostmt", false, true},
		{"-gostmt=true", "gostmt", true, true},
		{"-unrelated", "", false, false},
		{"cfg.json", "", false, false},
	}
	for _, c := range cases {
		name, val, ok := parseEnableFlag(c.arg)
		if name != c.name || val != c.val || ok != c.ok {
			t.Errorf("parseEnableFlag(%q) = %q,%v,%v; want %q,%v,%v",
				c.arg, name, val, ok, c.name, c.val, c.ok)
		}
	}
}

func TestRunConfigWritesVetxAndSkips(t *testing.T) {
	// VetxOnly configs must still write the facts file and exit 0.
	dir := t.TempDir()
	vetx := filepath.Join(dir, "out.vetx")
	cfg := filepath.Join(dir, "pkg.cfg")
	body := fmt.Sprintf(`{"ImportPath":"x","VetxOnly":true,"VetxOutput":%q}`, vetx)
	if err := os.WriteFile(cfg, []byte(body), 0o666); err != nil {
		t.Fatal(err)
	}
	var errOut strings.Builder
	if code := runConfig(cfg, analyzers, &errOut); code != 0 {
		t.Fatalf("VetxOnly run exited %d: %s", code, errOut.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not written: %v", err)
	}
}

func TestDiagcodeFires(t *testing.T) {
	got, wants, fset := runOnTestdata(t, "diagcode", "example.com/diagcodetest", diagcodeAnalyzer)
	if len(got) != 5 {
		t.Fatalf("diagcode produced %d findings on its testdata, want 5: %v", len(got), got)
	}
	checkWants(t, got, wants, fset)
	// The _test.go file constructs an unregistered code; none of the
	// findings may point into it.
	for _, d := range got {
		if strings.HasSuffix(fset.Position(d.pos).Filename, "_test.go") {
			t.Errorf("diagcode flagged a test file: %s", fset.Position(d.pos))
		}
	}
}

func TestDiagcodeExemptsPackagesWithoutCodes(t *testing.T) {
	// A package with no Codes registry (the mapiter testdata) must
	// stay silent even though it is full of ordinary strings.
	got, _, fset := runOnTestdata(t, "mapiter", "example.com/mapitertest", diagcodeAnalyzer)
	for _, d := range got {
		t.Errorf("diagcode fired without a Codes table: %s: %s", fset.Position(d.pos), d.message)
	}
}
