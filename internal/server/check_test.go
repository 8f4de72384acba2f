package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"balsabm/internal/api"
)

// postCheck posts a raw body to the checker's endpoint and returns the
// status and response bytes.
func postCheck(t *testing.T, hs *httptest.Server, checker string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := hs.Client().Post(hs.URL+"/api/v1/check/"+checker, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// assertCheckByteIdentity: the raw endpoint response must be
// byte-identical to api.Encode(RunCheck(...)) — the bytes the CLI's
// checker subcommand prints locally under -json.
func assertCheckByteIdentity(t *testing.T, hs *httptest.Server, checker string, req api.CheckRequest) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, remote := postCheck(t, hs, checker, body)
	if code != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %s", checker, code, remote)
	}
	res, err := RunCheck(context.Background(), checker, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := api.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local) {
		t.Errorf("%s: server and local bytes differ:\n--- server ---\n%s--- local ---\n%s", checker, remote, local)
	}
	// A result decoded by the client re-encodes to the server's bytes:
	// stats stay raw, diagnostics carry everything they render from.
	var decoded api.CheckResultJSON
	if err := json.Unmarshal(remote, &decoded); err != nil {
		t.Fatal(err)
	}
	again, err := api.Encode(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, remote) {
		t.Errorf("%s: client round trip changed the bytes:\n%s", checker, again)
	}
}

// assertCheckRejects: an unknown body field answers 400, and every bad
// request fails through the client.
func assertCheckRejects(t *testing.T, hs *httptest.Server, c *Client, checker string, bad ...api.CheckRequest) {
	t.Helper()
	if code, body := postCheck(t, hs, checker, []byte(`{"bogus":1}`)); code != http.StatusBadRequest {
		t.Errorf("%s: unknown field: HTTP %d, want 400: %s", checker, code, body)
	}
	for _, req := range bad {
		if _, err := c.Check(context.Background(), checker, req); err == nil {
			t.Errorf("%s: bad request accepted: %+v", checker, req)
		}
	}
}

// assertDiagCounter: after a completed synth job, the daemon counts the
// checker's code in the JSON metrics and in the Prometheus text
// export.
func assertDiagCounter(t *testing.T, hs *httptest.Server, c *Client, checker, code string) {
	t.Helper()
	ctx := context.Background()
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Diags[checker][code] == 0 {
		t.Fatalf("diag counters miss %s %s: %+v", checker, code, m.Diags)
	}
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := `balsabmd_diags_total{checker="` + checker + `",code="` + code + `"}`
	if !strings.Contains(string(text), series) {
		t.Errorf("/metrics lacks %s:\n%s", series, text)
	}
}

// decodeStats decodes a report's raw static report into the checker's
// stats type.
func decodeStats(t *testing.T, rep api.CheckReportJSON, into any) {
	t.Helper()
	if err := json.Unmarshal(rep.Stats, into); err != nil {
		t.Fatalf("%s: stats %s: %v", rep.Unit, rep.Stats, err)
	}
}

// TestCheckerRegistry: one entry per checker tier, in pipeline order,
// each with a code table whose codes carry one prefix, reachable by
// name; unknown names are rejected by RunCheck and answer 404 over
// HTTP.
func TestCheckerRegistry(t *testing.T) {
	codeRe := regexp.MustCompile(`^[A-Z]{2}[0-9]{3}$`)
	var names []string
	for _, c := range Checkers() {
		names = append(names, c.Name)
		if got, err := lookupChecker(c.Name); err != nil || got != c {
			t.Errorf("lookupChecker(%q) = %v, %v", c.Name, got, err)
		}
		if c.Gate == "" || c.Headline == "" || c.run == nil || len(c.Codes) == 0 {
			t.Errorf("%s: incomplete entry %+v", c.Name, c.Checker)
		}
		prefix := ""
		for code, doc := range c.Codes {
			if !codeRe.MatchString(code) || doc == "" {
				t.Errorf("%s: bad code row %q: %q", c.Name, code, doc)
			}
			if prefix == "" {
				prefix = code[:2]
			} else if code[:2] != prefix {
				t.Errorf("%s: codes mix prefixes %s and %s", c.Name, prefix, code[:2])
			}
		}
	}
	if got := strings.Join(names, ","); got != "chlint,bmlint,netlint,hazver" {
		t.Errorf("registry order = %s", got)
	}
	if _, err := RunCheck(context.Background(), "nolint", api.CheckRequest{}, nil); err == nil {
		t.Error("unknown checker accepted")
	}
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	if code, body := postCheck(t, hs, "nolint", []byte(`{}`)); code != http.StatusNotFound {
		t.Errorf("unknown checker: HTTP %d, want 404: %s", code, body)
	}
}

// TestCheckBuiltinDesign: a request naming a built-in design checks
// its control netlist — chlint once, under the design's name; the
// arm-checking tiers in the requested arm, with units prefixed
// "<design>.<arm>". A request naming both a design and source is
// rejected.
func TestCheckBuiltinDesign(t *testing.T) {
	ctx := context.Background()
	res, err := RunCheck(ctx, "chlint", api.CheckRequest{Design: "systolic-counter"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Unit != "systolic-counter" || res.Mode != "" {
		t.Errorf("chlint design check = %+v", res)
	}
	res, err = RunCheck(ctx, "bmlint", api.CheckRequest{Design: "systolic-counter", Mode: api.ModeUnopt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Reports {
		if !strings.HasPrefix(rep.Unit, "systolic-counter.unopt.") {
			t.Errorf("bmlint unit %q lacks the design.arm prefix", rep.Unit)
		}
	}
	if _, err := RunCheck(ctx, "bmlint", api.CheckRequest{Design: "systolic-counter", Source: "x"}, nil); err == nil {
		t.Error("design plus source accepted")
	}
	if _, err := RunCheck(ctx, "chlint", api.CheckRequest{Design: "no-such-design"}, nil); err == nil {
		t.Error("unknown design accepted")
	}
}

// TestChlintMetricsCounters: the daemon counts chlint findings like
// every other tier's — a synth job's CH013 warnings, and the CH010
// error of a job the lint gate failed.
func TestChlintMetricsCounters(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// Two components sharing no channel: one CH013 warning each.
	disconnected := `
(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active out_a))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active out_b))))
`
	if _, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: disconnected, Mode: api.ModeUnopt}); err != nil {
		t.Fatal(err)
	}
	assertDiagCounter(t, hs, c, "chlint", "CH013")

	// "up" is driven from both ends: CH010, error severity.
	broken := `
(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active up))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active up))))
`
	if _, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: broken, Mode: api.ModeUnopt}); err == nil {
		t.Fatal("want lint failure, got success")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Diags["chlint"]["CH013"] != 2 || m.Diags["chlint"]["CH010"] != 1 {
		t.Errorf("chlint counters = %v, want CH013 2 and CH010 1", m.Diags["chlint"])
	}
}
