package server

import (
	"context"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/bmlint"
)

// A well-formed two-state handshake spec in .bms text form.
const bmlintTestSpec = `name pulse
input go 0
output done 0
0 1 go+ | done+
1 0 go- | done-
`

// TestBmlintEndpoint: POST /api/v1/check/bmlint compiles the design's
// components to Burst-Mode specs and answers one report per spec, each
// with the BM200 static report filled in and zero BM-errors on
// chtobm-compiled output.
func TestBmlintEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	res, err := c.Check(ctx, "bmlint", api.CheckRequest{Source: netlintTestSource, Name: "pair"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checker != "bmlint" || res.Mode != "" || len(res.Reports) != 2 {
		t.Fatalf("result = %+v, want two spec reports of the netlist as written", res)
	}
	for _, rep := range res.Reports {
		if rep.Errors != 0 {
			t.Errorf("%s: compiled spec has %d BM-errors: %+v", rep.Unit, rep.Errors, rep.Diags)
		}
		var st bmlint.Stats
		decodeStats(t, rep, &st)
		if st.States == 0 || st.Budget == 0 {
			t.Errorf("%s: static report missing or empty: %+v", rep.Unit, st)
		}
		if rep.Infos == 0 {
			t.Errorf("%s: no BM200 info diagnostic: %+v", rep.Unit, rep.Diags)
		}
	}
	// A requested arm names its specs "<design>.<arm>.<component>".
	res, err = c.Check(ctx, "bmlint", api.CheckRequest{Source: netlintTestSource, Name: "pair", Mode: api.ModeUnopt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != api.ModeUnopt || len(res.Reports) != 2 || res.Reports[0].Unit != "pair.unopt.a" {
		t.Errorf("unopt arm = %+v", res)
	}
}

// TestBmlintEndpointBMS: Format "bms" lints the spec text directly,
// one report, no synthesis.
func TestBmlintEndpointBMS(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	res, err := c.Check(ctx, "bmlint", api.CheckRequest{Source: bmlintTestSpec, Format: api.FormatBMS})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Unit != "pulse" {
		t.Fatalf("reports = %+v, want one report for pulse", res.Reports)
	}
	if res.Reports[0].Errors != 0 {
		t.Errorf("clean spec has BM-errors: %+v", res.Reports[0].Diags)
	}

	// An unparsable spec folds into a single BM000 error diagnostic —
	// the report is the product, so the request itself succeeds.
	res, err = c.Check(ctx, "bmlint", api.CheckRequest{Source: "not a spec", Format: api.FormatBMS})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || len(res.Reports[0].Diags) != 1 || res.Reports[0].Diags[0].Code != "BM000" {
		t.Fatalf("unparsable spec: %+v, want one BM000", res.Reports)
	}
}

// TestBmlintEndpointByteIdentity: the raw response body must be
// byte-identical to api.Encode(RunCheck(...)) — the same bytes
// `balsabm bmlint -json` prints locally.
func TestBmlintEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	assertCheckByteIdentity(t, hs, "bmlint", api.CheckRequest{Source: netlintTestSource, Name: "pair"})
	assertCheckByteIdentity(t, hs, "bmlint", api.CheckRequest{Source: bmlintTestSpec, Format: api.FormatBMS})
}

// TestBmlintEndpointRejects: unknown body fields, unparsable designs,
// empty .bms sources and unknown modes answer 400 with an error body.
func TestBmlintEndpointRejects(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	assertCheckRejects(t, hs, c, "bmlint",
		api.CheckRequest{Source: "(not a design"},
		api.CheckRequest{Source: "  ", Format: api.FormatBMS},
		api.CheckRequest{Source: netlintTestSource, Mode: "fastest"})
}

// TestBmlintMetricsCounters: a completed job feeds the per-code bmlint
// counters (the gate's BM200 reports at minimum), visible in both the
// JSON metrics and the Prometheus text export.
func TestBmlintMetricsCounters(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	if _, err := c.Run(context.Background(), api.JobRequest{Kind: api.KindSynth, Source: netlintTestSource, Mode: api.ModeUnopt}); err != nil {
		t.Fatal(err)
	}
	// The post-compile gate always records one BM200 report per spec.
	assertDiagCounter(t, hs, c, "bmlint", "BM200")
}
