package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"balsabm/internal/analysis"
	"balsabm/internal/api"
)

// TestLintEndpointByteIdentity: for every examples/lint corpus file,
// the raw POST /api/v1/check/chlint response body must be
// byte-identical to what `balsabm lint -json <file>` prints — both are
// api.Encode(RunCheck("chlint", ...)).
func TestLintEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	files, err := filepath.Glob("../../examples/lint/*.ch")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		assertCheckByteIdentity(t, hs, "chlint", api.CheckRequest{Source: string(src), File: file})
	}
}

// TestLintEndpointCounts: the acceptance-criterion program (three
// Table 1 violations) answers three errors with positions over the
// wire, rendering exactly as the analyzer renders them.
func TestLintEndpointCounts(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	src, err := os.ReadFile("../../examples/lint/table1.ch")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Check(context.Background(), "chlint", api.CheckRequest{Source: string(src), File: "table1.ch"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors() != 3 || len(res.Reports) != 1 || len(res.Reports[0].Diags) != 3 {
		t.Fatalf("want 3 errors in one report, got %d: %+v", res.Errors(), res.Reports)
	}
	rep := res.Reports[0]
	wantLines := []int{5, 6, 7}
	for i, d := range rep.Diags {
		if d.Code != "CH001" || d.Key != [2]int{wantLines[i], 3} || d.Loc != fmt.Sprintf("%d:3", wantLines[i]) || !d.Tight {
			t.Errorf("diag %d: %s at %q key %v, want CH001 at %d:3", i, d.Code, d.Loc, d.Key, wantLines[i])
		}
	}
	if got := rep.Format(); got != analysis.Format(analysis.LintSource(string(src)), "table1.ch") {
		t.Errorf("wire rendering differs from the analyzer's:\n%s", got)
	}
	assertCheckRejects(t, hs, c, "chlint")
}

// TestSynthJobLintGate: a synth job whose netlist fails lint must fail
// before synthesis, with the analyzer's findings in the job error, and
// a job with warnings must surface them as "lint" SSE events.
func TestSynthJobLintGate(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// "up" is driven from both ends: CH010, error severity.
	broken := `
(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active up))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active up))))
`
	_, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: broken, Mode: api.ModeUnopt})
	if err == nil {
		t.Fatal("want lint failure, got success")
	}
	if !contains(err.Error(), "CH010") {
		t.Fatalf("error does not carry the lint code: %v", err)
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}

// TestLintWarningsStreamAsEvents: non-error findings from the gate
// appear as "lint" SSE events on the job's progress stream, and the
// job still completes.
func TestLintWarningsStreamAsEvents(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// Two components sharing no channel: CH013 warnings, no errors.
	disconnected := `
(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active out_a))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active out_b))))
`
	st, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: disconnected, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone {
		t.Fatalf("job state %s (%s), want done", final.State, final.Error)
	}

	reqCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodGet,
		hs.URL+"/api/v1/jobs/"+st.ID+"/events", nil)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	byChecker := map[string][]api.DiagJSON{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.Type == "lint" {
			if ev.Diag == nil {
				t.Fatalf("lint event without payload: %+v", ev)
			}
			byChecker[ev.Diag.Checker] = append(byChecker[ev.Diag.Checker], *ev.Diag)
		}
	}
	lints, netlints, bmlints, hazvers := byChecker["chlint"], byChecker["netlint"], byChecker["bmlint"], byChecker["hazver"]
	if len(lints) != 2 {
		t.Fatalf("want 2 lint events (CH013 per component), got %d: %+v", len(lints), lints)
	}
	for _, d := range lints {
		if d.Code != "CH013" || d.Severity != "warning" || d.Unit != "submitted" {
			t.Errorf("unexpected lint event %+v", d)
		}
	}
	// The post-merge netlint gate streams its findings on the same
	// event type; at minimum the NL200 static report of the merged
	// circuit must have arrived, tagged with the audited circuit.
	found := false
	for _, d := range netlints {
		if d.Code == "NL200" && d.Unit == "synth.unopt" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing NL200 netlint event for synth.unopt: %+v", netlints)
	}
	// The post-compile bmlint gate streams its findings there too: one
	// BM200 static report per compiled spec, tagged with the audited
	// spec ("design.arm.component").
	for _, spec := range []string{"synth.unopt.a", "synth.unopt.b"} {
		found := false
		for _, d := range bmlints {
			if d.Code == "BM200" && d.Unit == spec {
				found = true
			}
		}
		if !found {
			t.Errorf("missing BM200 bmlint event for %s: %+v", spec, bmlints)
		}
	}
	// The post-mapping hazver gate streams its findings there too: the
	// HZ200 static report of the verified circuit.
	found = false
	for _, d := range hazvers {
		if d.Code == "HZ200" && d.Unit == "synth.unopt" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing HZ200 hazver event for synth.unopt: %+v", hazvers)
	}
}
