package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"balsabm/internal/api"
	"balsabm/internal/flow"
	"balsabm/internal/server"
	"balsabm/internal/store"
)

// ---------------------------------------------------------------------
// balsa-edit: the daemon's edit loop. Each client owns one generated
// Balsa design; its cold first submission belongs to set-up, and every
// op after it is one KindSynth job — an edit regenerating one procedure
// or an undo resubmitting an earlier source — timed from submit to
// result through server.Client against an in-process daemon with a
// fresh store, served over loopback HTTP.

const (
	// editClients is the number of closed-loop clients, one per core.
	editClients = workers
	// editQualityOps is how many leading jobs of each client the quality
	// metrics sum over.
	editQualityOps = 48
	// editSampleEvery / editSamples choose the jobs whose result is
	// compared byte for byte with an uncached in-process synthesis.
	editSampleEvery = 12
	editSamples     = 4
	// editMaxStates is the clustering bound every edit job requests: the
	// paper's knob for keeping synthesis run time manageable, at the
	// value the repository's own incremental edit benchmark uses. The
	// daemon itself runs with balsabmd's defaults. Unbounded, about one
	// generated procedure in twenty clusters into a 14-state controller
	// that minimizes 5-10x slower than the rest, and a run's two designs
	// then set its latency by whether they happen to hold one.
	editMaxStates = 12
)

// daemon is one in-process balsabmd: a fresh store, the job manager
// with balsabmd's default settings, and a loopback HTTP listener.
type daemon struct {
	store  *store.Store
	srv    *server.Server
	http   *http.Server
	served chan error
	client *server.Client
}

func startDaemon(dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	// balsabmd defaults: -jobs 2, -queue 64.
	srv := server.New(server.Config{Workers: 2, QueueDepth: 64, Store: st})
	d := &daemon{
		store:  st,
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: server.NewClient("http://" + ln.Addr().String()),
	}
	d.client.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * editClients}}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, the manager and the store down and waits
// for the serving goroutine to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.http.Shutdown(ctx) // error means connections were cut at the deadline; the serving goroutine still returns
	<-d.served
	d.client.HTTP.CloseIdleConnections()
	d.srv.Close()
	d.store.Close()
}

// job submits one request, waits for it and fetches its result.
func (d *daemon) job(ctx context.Context, req api.JobRequest) (api.JobStatus, *api.JobResult, error) {
	st, err := d.client.Submit(ctx, req)
	if err != nil {
		return st, nil, err
	}
	st, err = d.client.Wait(ctx, st.ID)
	if err != nil {
		return st, nil, err
	}
	if st.State != api.StateDone {
		return st, nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	res, err := d.client.Result(ctx, st.ID)
	if err != nil {
		return st, nil, err
	}
	if res.Synth == nil {
		return st, nil, fmt.Errorf("job %s: result carries no synthesis", st.ID)
	}
	return st, res, nil
}

// editClient is one client's design, edit stream and last job.
type editClient struct {
	name    string
	stream  *editStream
	lastJob string
}

// newEditClients draws each client's design and submission stream from
// the seed.
func newEditClients(seed int64) []*editClient {
	var cs []*editClient
	for c := 0; c < editClients; c++ {
		r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		name := fmt.Sprintf("edit%d", c)
		cs = append(cs, &editClient{name: name, stream: newEditStream(r, genBalsaDesign(r, name))})
	}
	return cs
}

func (c *editClient) request(src string) api.JobRequest {
	return api.JobRequest{
		Kind: api.KindSynth, Format: api.FormatBalsa, Name: c.name,
		Source: src, BaseJobID: c.lastJob,
		Config: api.FlowConfig{MaxStates: editMaxStates},
	}
}

// synthQuality sums the controllers' areas and critical delays.
func synthQuality(res *api.JobResult) quality {
	var q quality
	for _, c := range res.Synth.Controllers {
		q.area += c.Controller.Area
		q.delay += c.Controller.Critical
	}
	return q
}

// editSample is a job whose result is re-derived after the timed window.
type editSample struct {
	req api.JobRequest
	got []byte
}

type editSession struct {
	d       *daemon
	clients []*editClient
	mu      sync.Mutex
	samples []editSample
}

var editWorkload = &workload{
	name:       "balsa-edit",
	clients:    editClients,
	qualityOps: editQualityOps,
	setup: func(ctx context.Context, e *env) (session, error) {
		d, err := startDaemon(filepath.Join(e.workdir, fmt.Sprintf("edit-store-%d", e.setupN)))
		if err != nil {
			return nil, err
		}
		s := &editSession{d: d, clients: newEditClients(e.seed)}
		// The cold base submissions: every controller is synthesized
		// afresh and lands in the store.
		for _, c := range s.clients {
			st, _, err := d.job(ctx, c.request(c.stream.design.source()))
			if err != nil {
				s.close()
				return nil, fmt.Errorf("base design %s: %w", c.name, err)
			}
			c.lastJob = st.ID
		}
		return s, nil
	},
	traced: tracedEdit,
}

func (s *editSession) op(ctx context.Context, client, i int) (quality, error) {
	c := s.clients[client]
	src, _ := c.stream.next()
	req := c.request(src)
	st, res, err := s.d.job(ctx, req)
	if err != nil {
		return quality{}, err
	}
	c.lastJob = st.ID
	if i%editSampleEvery == editSampleEvery/2 && i/editSampleEvery < editSamples {
		got, err := api.Encode(res)
		if err != nil {
			return quality{}, err
		}
		s.mu.Lock()
		s.samples = append(s.samples, editSample{req: req, got: got})
		s.mu.Unlock()
	}
	return synthQuality(res), nil
}

// finish re-synthesizes each sampled job in process with no controller
// cache and compares the bytes, then verifies every blob in the store.
func (s *editSession) finish(ctx context.Context) (int, error) {
	bad := 0
	for _, smp := range s.samples {
		ref, err := server.RunSynth(ctx, smp.req, &flow.Metrics{}, nil)
		if err != nil {
			return 0, fmt.Errorf("uncached reference synthesis of %s: %w", smp.req.Name, err)
		}
		want, err := api.Encode(ref)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(smp.got, want) {
			fmt.Fprintf(os.Stderr, "perfbench: balsa-edit: %s: daemon result differs from uncached synthesis\n", smp.req.Name)
			bad++
		}
	}
	vr, err := s.d.store.Verify()
	if err != nil {
		return 0, err
	}
	if len(vr.Corrupt) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: balsa-edit: store.Verify: %d corrupt blobs of %d\n", len(vr.Corrupt), vr.Checked)
		bad += len(vr.Corrupt)
	}
	return bad, nil
}

func (s *editSession) close() {
	s.d.stop()
	os.RemoveAll(s.d.store.Dir()) // scratch data; a leftover directory is removed by the next set-up
}
