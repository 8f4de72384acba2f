package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/flow"
)

// TestHazverEndpoint: POST /api/v1/hazver synthesizes the design and
// answers the static hazard verification of the merged mapped logic:
// every specified burst checked, zero HZ-errors on flow output, and
// the HZ200 static report present.
func TestHazverEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	for _, mode := range []string{api.ModeUnopt, api.ModeOpt} {
		res, err := c.Hazver(ctx, api.HazverRequest{Source: netlintTestSource, Name: "pair", Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Mode != mode {
			t.Errorf("mode %q, want %q", res.Mode, mode)
		}
		rep := res.Report
		if rep.Circuit != "pair."+mode {
			t.Errorf("circuit %q, want pair.%s", rep.Circuit, mode)
		}
		if rep.Errors != 0 {
			t.Errorf("%s: flow-emitted design has %d HZ-errors: %+v", rep.Circuit, rep.Errors, rep.Diags)
		}
		if rep.Stats.Bursts == 0 || rep.Stats.Functions == 0 {
			t.Errorf("%s: empty verification: %+v", rep.Circuit, rep.Stats)
		}
		found := false
		for _, d := range rep.Diags {
			if d.Code == "HZ200" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: missing HZ200 static report: %+v", rep.Circuit, rep.Diags)
		}
	}
}

// TestHazverEndpointByteIdentity: the raw response body must be
// byte-identical to api.Encode(RunHazver(...)) — the same bytes
// `balsabm hazver -json` prints locally.
func TestHazverEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	req := api.HazverRequest{Source: netlintTestSource, Name: "pair", Mode: api.ModeUnopt}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/api/v1/hazver", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, remote)
	}
	res, err := RunHazver(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	local, err := api.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local) {
		t.Errorf("server and local bytes differ:\n--- server ---\n%s--- local ---\n%s", remote, local)
	}
}

// TestHazverEndpointRejects: unknown body fields, unparsable sources
// and unknown modes answer 400 with an error body.
func TestHazverEndpointRejects(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	resp, err := hs.Client().Post(hs.URL+"/api/v1/hazver", "application/json",
		bytes.NewReader([]byte(`{"bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}

	if _, err := c.Hazver(ctx, api.HazverRequest{Source: "(not a design"}); err == nil {
		t.Error("unparsable source accepted")
	}
	if _, err := c.Hazver(ctx, api.HazverRequest{Source: netlintTestSource, Mode: "fastest"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestHazverMetricsCounters: a completed synth job feeds the per-code
// hazver counters, visible in both the JSON metrics and the Prometheus
// text export, and the synth result carries the hazver report.
func TestHazverMetricsCounters(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	res, err := c.Run(ctx, api.JobRequest{Kind: api.KindSynth, Source: netlintTestSource, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Synth == nil || res.Synth.Hazver == nil {
		t.Fatal("synth result lacks the hazver report")
	}
	if res.Synth.Hazver.Errors != 0 || res.Synth.Hazver.Stats.Bursts == 0 {
		t.Errorf("synth hazver report unexpected: %+v", res.Synth.Hazver)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The post-mapping gate always records its HZ200 static report.
	if m.HazverDiags["HZ200"] == 0 {
		t.Fatalf("hazver diag counters missing HZ200: %+v", m.HazverDiags)
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
	if !strings.Contains(string(text), `balsabmd_hazver_diags_total{code="HZ200"}`) {
		t.Errorf("/metrics lacks the hazver counter:\n%s", text)
	}
}

// incrRenamed is incrBase with every component and wire renamed but
// the relative wire order kept, so its controllers share incrBase's
// canonical digests: an incremental submission splices all of them
// from the controller cache, renamed onto the new wires.
const incrRenamed = `
(program pA (rep (enc-early (p-to-p passive zroot)
    (seq (p-to-p active zl1) (p-to-p active zl2)))))
(program pB (rep (enc-late (p-to-p passive zgo)
    (seq-ov (p-to-p active zx1) (p-to-p active zx2)))))
`

// TestSynthHazverWarmMatchesCold: the synth executor's hazver gate
// verifies the netlists the job ships, so a warm incremental job whose
// every controller was spliced from the controller cache must report
// the byte-identical hazver result of a cold, uncached RunSynth — in
// the baseline arm (where the gate synthesizes the hand-library
// sequencer for verification) and the optimized one.
func TestSynthHazverWarmMatchesCold(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	for _, mode := range []string{api.ModeUnopt, api.ModeOpt} {
		base, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: incrBase, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.Wait(ctx, base.ID); err != nil || st.State != api.StateDone {
			t.Fatalf("%s base job: %v %+v", mode, err, st)
		}
		warm, err := c.Submit(ctx, api.JobRequest{Kind: api.KindSynth, Source: incrRenamed,
			Mode: mode, BaseJobID: base.ID})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Wait(ctx, warm.ID)
		if err != nil || st.State != api.StateDone {
			t.Fatalf("%s warm job: %v %+v", mode, err, st)
		}
		if st.ControllersResynthesized != 0 || st.ControllersReused != 2 {
			t.Fatalf("%s warm job reused=%d resynthesized=%d, want 2/0",
				mode, st.ControllersReused, st.ControllersResynthesized)
		}
		res, err := c.Result(ctx, warm.ID)
		if err != nil {
			t.Fatal(err)
		}
		if res.Synth.Hazver == nil || res.Synth.Hazver.Stats.Bursts == 0 {
			t.Fatalf("%s warm job: empty hazver report %+v", mode, res.Synth.Hazver)
		}
		got, err := api.Encode(res.Synth.Hazver)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RunSynth(ctx, api.JobRequest{Kind: api.KindSynth, Source: incrRenamed, Mode: mode},
			&flow.Metrics{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := api.Encode(cold.Synth.Hazver)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: warm hazver report differs from cold:\n--- warm ---\n%s\n--- cold ---\n%s", mode, got, want)
		}
	}
}
