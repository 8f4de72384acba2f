package server

import (
	"bytes"
	"context"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/flow"
	"balsabm/internal/hazver"
)

// TestHazverEndpoint: POST /api/v1/check/hazver synthesizes the design
// and answers the static hazard verification of the merged mapped
// logic: every specified burst checked, zero HZ-errors on flow output,
// and the HZ200 static report present.
func TestHazverEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	for _, mode := range []string{api.ModeUnopt, api.ModeOpt} {
		res, err := c.Check(ctx, "hazver", api.CheckRequest{Source: netlintTestSource, Name: "pair", Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Mode != mode || len(res.Reports) != 1 {
			t.Fatalf("result = %+v, want one %s report", res, mode)
		}
		rep := res.Reports[0]
		if rep.Unit != "pair."+mode {
			t.Errorf("circuit %q, want pair.%s", rep.Unit, mode)
		}
		if rep.Errors != 0 {
			t.Errorf("%s: flow-emitted design has %d HZ-errors: %+v", rep.Unit, rep.Errors, rep.Diags)
		}
		var st hazver.Stats
		decodeStats(t, rep, &st)
		if st.Bursts == 0 || st.Functions == 0 {
			t.Errorf("%s: empty verification: %+v", rep.Unit, st)
		}
		found := false
		for _, d := range rep.Diags {
			if d.Code == "HZ200" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: missing HZ200 static report: %+v", rep.Unit, rep.Diags)
		}
	}
}

// TestHazverEndpointByteIdentity: the raw response body must be
// byte-identical to api.Encode(RunCheck(...)) — the same bytes
// `balsabm hazver -json` prints locally.
func TestHazverEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	assertCheckByteIdentity(t, hs, "hazver", api.CheckRequest{Source: netlintTestSource, Name: "pair", Mode: api.ModeUnopt})
}

// TestHazverEndpointRejects: unknown body fields, unparsable sources
// and unknown modes answer 400 with an error body.
func TestHazverEndpointRejects(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	assertCheckRejects(t, hs, c, "hazver",
		api.CheckRequest{Source: "(not a design"},
		api.CheckRequest{Source: netlintTestSource, Mode: "fastest"})
}

// TestHazverMetricsCounters: a completed synth job feeds the per-code
// hazver counters, visible in both the JSON metrics and the Prometheus
// text export, and the synth result carries the hazver report.
func TestHazverMetricsCounters(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	res, err := c.Run(context.Background(), api.JobRequest{Kind: api.KindSynth, Source: netlintTestSource, Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Synth == nil || res.Synth.Hazver == nil {
		t.Fatal("synth result lacks the hazver report")
	}
	var st hazver.Stats
	decodeStats(t, *res.Synth.Hazver, &st)
	if res.Synth.Hazver.Errors != 0 || st.Bursts == 0 {
		t.Errorf("synth hazver report unexpected: %+v", res.Synth.Hazver)
	}
	// The post-mapping gate always records its HZ200 static report.
	assertDiagCounter(t, hs, c, "hazver", "HZ200")
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
		if res.Synth.Hazver == nil {
			t.Fatalf("%s warm job: no hazver report", mode)
		}
		var hz hazver.Stats
		decodeStats(t, *res.Synth.Hazver, &hz)
		if hz.Bursts == 0 {
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
