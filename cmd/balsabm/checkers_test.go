package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"balsabm/internal/analysis"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/netlint"
	"balsabm/internal/server"
	"balsabm/internal/techmap"
)

// runCLI runs the built balsabm binary in dir and returns its stdout
// and exit code.
func runCLI(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("balsabm %v: %v\n%s", args, err, stderr.String())
	return "", 0
}

// goldenDiags strips a golden report down to its rendered diagnostics:
// the "== unit ==" headers and "static:" lines go, the diag.Format
// lines stay.
func goldenDiags(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(line, "== ") && !strings.HasPrefix(line, "static: ") {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// armNetlist returns a design's control netlist in one arm and the
// mapping mode the arm synthesizes with.
func armNetlist(t *testing.T, d *designs.Design, arm string) (*core.Netlist, techmap.Mode) {
	t.Helper()
	if arm == "unopt" {
		return d.Control(), techmap.AreaShared
	}
	n, _, err := core.OptimizeOpt(d.Control(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n, techmap.SpeedSplit
}

// TestCheckerCLIText pins the text output and exit codes of the four
// checker subcommands — lint, bmlint, netlint and hazver — over the
// Table 3 designs (both arms) and the examples/lint corpus, run in
// process and through a daemon with -server. The text must be the
// typed checkers' own diag.Format rendering: the golden reports under
// examples/{lint,bmlint,hazver} for what they pin, the typed audits
// for the rest.
func TestCheckerCLIText(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every Table 3 design, both arms")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "balsabm")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 2})
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()

	// Expected text per checker over the built-in designs.
	ctx := context.Background()
	var lintWant, netlintWant, bmlintWant, hazverWant strings.Builder
	for _, d := range designs.All() {
		lintWant.WriteString(analysis.Format(analysis.Analyze(d.Control()), d.Name))
		bmlintWant.WriteString(goldenDiags(t, filepath.Join(root, "examples/bmlint", d.Name+".bmlint")))
		hazverWant.WriteString(goldenDiags(t, filepath.Join(root, "examples/hazver", d.Name+".hazver")))
		var merged strings.Builder
		for _, arm := range []string{"unopt", "opt"} {
			n, mode := armNetlist(t, d, arm)
			ctrls, m, err := flow.NetlintNetlist(ctx, d.Name, arm, n, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range append(ctrls, m) {
				netlintWant.WriteString(netlint.Format(c.Diags, c.Name))
			}
			merged.WriteString(netlint.Format(m.Diags, m.Name))
		}
		if golden := goldenDiags(t, filepath.Join(root, "examples/netlint", d.Name+".netlint")); merged.String() != golden {
			t.Fatalf("%s: typed merged-circuit audit differs from its golden:\n%s", d.Name, merged.String())
		}
	}
	designWant := map[string]string{
		"lint": lintWant.String(), "bmlint": bmlintWant.String(),
		"netlint": netlintWant.String(), "hazver": hazverWant.String(),
	}

	files, err := filepath.Glob(filepath.Join(root, "examples/lint/*.ch"))
	if err != nil || len(files) == 0 {
		t.Fatalf("lint corpus missing: %v", err)
	}
	for _, surface := range [][]string{nil, {"-server", hs.URL}} {
		name := "local"
		if surface != nil {
			name = "server"
		}
		for _, cmd := range []string{"lint", "bmlint", "netlint", "hazver"} {
			got, code := runCLI(t, bin, root, append(surface, cmd)...)
			if code != 0 {
				t.Errorf("%s %s: exit %d, want 0", name, cmd, code)
			}
			if got != designWant[cmd] {
				t.Errorf("%s %s: text differs from the typed rendering:\n--- got ---\n%s--- want ---\n%s",
					name, cmd, got, designWant[cmd])
			}
		}
		for _, file := range files {
			want, err := os.ReadFile(strings.TrimSuffix(file, ".ch") + ".diag")
			if err != nil {
				t.Fatal(err)
			}
			wantCode := 0
			if bytes.Contains(want, []byte(": error: ")) {
				wantCode = 1
			}
			got, code := runCLI(t, bin, filepath.Dir(file), append(surface, "lint", filepath.Base(file))...)
			if got != string(want) || code != wantCode {
				t.Errorf("%s lint %s: exit %d (want %d), text:\n%s--- want ---\n%s",
					name, filepath.Base(file), code, wantCode, got, want)
			}
		}
	}
}
