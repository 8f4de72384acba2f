package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// latency_p90_ms needs minBeyond samples beyond it: 100 samples put
// exactly 10 after rank 90, 99 samples only 9.
func TestP90RefusedWithoutTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		refuse bool
	}{{99, true}, {100, false}, {150, false}, {5, true}} {
		var tl tally
		for i := 0; i < tc.n; i++ {
			tl.ok(time.Duration(i+1) * time.Millisecond)
		}
		_, p90, err := tl.latencyMetrics()
		if refused := err != nil; refused != tc.refuse {
			t.Errorf("%d samples: refused=%t (err %v), want %t", tc.n, refused, err, tc.refuse)
		}
		if err == nil && p90 != math.Ceil(0.9*float64(tc.n)) {
			t.Errorf("%d samples: p90 = %g", tc.n, p90)
		}
	}
}

// fakeSession fails chosen ops, some as refusals and some as output
// mismatches.
type fakeSession struct {
	errAt map[int]error
	late  int
}

func (s *fakeSession) op(_ context.Context, _, i int) (quality, error) {
	if err, ok := s.errAt[i]; ok {
		return quality{}, err
	}
	return quality{area: 1, delay: 1}, nil
}
func (s *fakeSession) finish(context.Context) (int, error) { return s.late, nil }
func (s *fakeSession) close()                              {}

func runFake(t *testing.T, s *fakeSession) *report {
	t.Helper()
	w := &workload{
		name: "fake", clients: 1, qualityOps: 1,
		setup: func(context.Context, *env) (session, error) { return s, nil },
	}
	rep, err := runTimed(context.Background(), w, &env{}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Refused submissions and failed ops count against success_rate
// (1 − error_rate); only output mismatches make a run incorrect.
func TestFailuresCountInErrorRate(t *testing.T) {
	rep := runFake(t, &fakeSession{errAt: map[int]error{
		3: fmt.Errorf("server: POST /api/v1/jobs: %w", errors.New("server: job queue full")),
		7: errors.New("flow: stack: deadlock"),
	}})
	if rep.Attempted < minOps || rep.Failed != 2 || !rep.Correct {
		t.Fatalf("attempted %d failed %d correct %t, want >=%d 2 true", rep.Attempted, rep.Failed, rep.Correct, minOps)
	}
	if got, want := rep.Metrics["success_rate"].Value, float64(rep.Attempted-2)/float64(rep.Attempted); got != want {
		t.Errorf("success_rate = %g, want %g", got, want)
	}

	rep = runFake(t, &fakeSession{errAt: map[int]error{5: mismatchf("mem[17] = 3, want 4")}, late: 1})
	if rep.Failed != 2 || rep.Correct {
		t.Errorf("failed %d correct %t, want 2 false (one mismatch in the window, one after it)", rep.Failed, rep.Correct)
	}
	if got, want := rep.Metrics["success_rate"].Value, float64(rep.Attempted-2)/float64(rep.Attempted); got != want {
		t.Errorf("success_rate = %g, want %g", got, want)
	}
}

// A submission the daemon refuses is an op failure, not a crash.
func TestRefusedSubmissionFails(t *testing.T) {
	d, err := startDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	s := &editSession{d: d, clients: newEditClients(1)}
	s.clients[0].lastJob = "j99999" // a base job the daemon never saw
	if _, err := s.op(context.Background(), 0, 0); err == nil || !strings.Contains(err.Error(), "unknown base job") {
		t.Fatalf("op with unknown base job: err = %v, want a refusal", err)
	}
}

// qualityOf sets a workload up and sums the quality of each client's
// leading qualityOps ops, the list the quality metrics cover.
func qualityOf(t *testing.T, w *workload, seed int64) quality {
	t.Helper()
	s, err := w.setup(context.Background(), &env{seed: seed, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var q quality
	for c := 0; c < w.clients; c++ {
		for i := 0; i < w.qualityOps; i++ {
			x, err := s.op(context.Background(), c, i)
			if err != nil {
				t.Fatalf("%s client %d op %d: %v", w.name, c, i, err)
			}
			q.area += x.area
			q.delay += x.delay
		}
	}
	return q
}

// opt_area_um2 and opt_delay_ns repeat exactly for a seed.
func TestQualityRepeatsForSeed(t *testing.T) {
	for _, name := range []string{"table3", "ssem-sim", "balsa-edit"} {
		w := workloads[name]
		a, b := qualityOf(t, w, 7), qualityOf(t, w, 7)
		if a != b || a.area == 0 || a.delay == 0 {
			t.Errorf("%s: seed 7 gives %+v then %+v", name, a, b)
		}
	}
}

// The SSEM generator holds the dynamic instruction count fixed and its
// programs halt in the reference interpreter.
func TestSSEMProgramsFixedLength(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		p, err := genSSEMProgram(r, ssemIterations)
		if err != nil {
			t.Fatal(err)
		}
		if p.Steps != 3*ssemIterations+6 {
			t.Fatalf("program %d executes %d instructions, want %d", i, p.Steps, 3*ssemIterations+6)
		}
	}
}

// An undo resubmits the source the last edit replaced, verbatim.
func TestEditStreamUndo(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := newEditStream(r, genBalsaDesign(r, "d"))
	var sources []string
	undos := 0
	for i := 0; i < 200; i++ {
		before := s.design.source()
		src, undo := s.next()
		if undo {
			undos++
			found := false
			for _, old := range sources {
				found = found || old == src
			}
			if !found {
				t.Fatalf("step %d: undo produced a source never submitted before", i)
			}
		} else if src == before {
			t.Logf("step %d: edit regenerated an identical procedure", i)
		}
		sources = append(sources, before, src)
	}
	if undos < 200/undoEvery/2 || undos > 2*200/undoEvery {
		t.Errorf("%d undos in 200 steps, want about %d", undos, 200/undoEvery)
	}
}
