package server

import (
	"context"
	"strings"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/netlint"
)

// A two-component design small enough to synthesize in a test but with
// real structure (sequencing plus an internal channel).
const netlintTestSource = `
(program a (rep (enc-early (p-to-p passive go) (seq (p-to-p active mid) (p-to-p active out)))))
(program b (rep (enc-early (p-to-p passive mid) (p-to-p active done))))
`

// TestNetlintEndpoint: POST /api/v1/check/netlint synthesizes the
// design and answers per-controller reports followed by the merged
// circuit's, with the static area/depth block filled in and zero
// NL-errors on flow output.
func TestNetlintEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	for _, mode := range []string{api.ModeUnopt, api.ModeOpt} {
		res, err := c.Check(ctx, "netlint", api.CheckRequest{Source: netlintTestSource, Name: "pair", Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Mode != mode {
			t.Errorf("mode %q, want %q", res.Mode, mode)
		}
		if len(res.Reports) < 2 {
			t.Fatalf("%s: want controller reports plus the merged circuit, got %d", mode, len(res.Reports))
		}
		last := len(res.Reports) - 1
		for _, rep := range res.Reports[:last] {
			if !strings.HasPrefix(rep.Unit, "pair."+mode+".") {
				t.Errorf("controller circuit %q lacks the pair.%s. prefix", rep.Unit, mode)
			}
			if rep.Errors != 0 {
				t.Errorf("%s: flow-emitted controller has %d NL-errors: %+v", rep.Unit, rep.Errors, rep.Diags)
			}
		}
		m := res.Reports[last]
		if m.Unit != "pair."+mode {
			t.Errorf("merged circuit %q, want pair.%s", m.Unit, mode)
		}
		if m.Errors != 0 {
			t.Errorf("merged circuit has %d NL-errors: %+v", m.Errors, m.Diags)
		}
		var st netlint.Stats
		decodeStats(t, m, &st)
		if st.Cells == 0 || st.Area <= 0 {
			t.Errorf("merged static report missing or empty: %+v", st)
		}
	}
	// Without a mode the optimized arm is checked.
	res, err := c.Check(ctx, "netlint", api.CheckRequest{Source: netlintTestSource, Name: "pair"})
	if err != nil || res.Mode != api.ModeOpt {
		t.Errorf("default arm: %v %+v", err, res)
	}
}

// TestNetlintEndpointByteIdentity: the raw response body must be
// byte-identical to api.Encode(RunCheck(...)) — the same bytes
// `balsabm netlint -json` prints locally.
func TestNetlintEndpointByteIdentity(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{Workers: 1})
	assertCheckByteIdentity(t, hs, "netlint", api.CheckRequest{Source: netlintTestSource, Name: "pair", Mode: api.ModeUnopt})
}

// TestNetlintEndpointRejects: unknown body fields, unparsable sources
// and unknown modes answer 400 with an error body.
func TestNetlintEndpointRejects(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	assertCheckRejects(t, hs, c, "netlint",
		api.CheckRequest{Source: "(not a design"},
		api.CheckRequest{Source: netlintTestSource, Mode: "fastest"})
}

// TestNetlintMetricsCounters: a completed synth job feeds the per-code
// netlint counters, visible in both the JSON metrics and the
// Prometheus text export.
func TestNetlintMetricsCounters(t *testing.T) {
	_, hs, c := newTestServer(t, Config{Workers: 1})
	if _, err := c.Run(context.Background(), api.JobRequest{Kind: api.KindSynth, Source: netlintTestSource, Mode: api.ModeUnopt}); err != nil {
		t.Fatal(err)
	}
	// The merged-circuit gate always records its NL200 static report.
	assertDiagCounter(t, hs, c, "netlint", "NL200")
}
