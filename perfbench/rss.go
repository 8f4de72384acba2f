package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// rssEvery is the resident-set sampling period. Ops last tens of
// milliseconds or more, so each is sampled many times; one sample is a
// single pread of /proc/self/statm into a fixed buffer, so the sampler
// neither allocates nor takes measurable CPU from the ops it watches.
const rssEvery = 5 * time.Millisecond

// rssSampler samples the process's resident set and keeps, per client,
// the highest sample since that client's current op began. The median
// of those per-op peaks is steady from run to run, where the process's
// lifetime high-water mark (VmHWM) is one extreme sample that moves with
// where garbage collection happened to fall.
type rssSampler struct {
	statm *os.File
	peaks []atomic.Int64 // bytes
	stop  chan struct{}
	wg    sync.WaitGroup
}

func startRSSSampler(clients int) (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	r := &rssSampler{statm: f, peaks: make([]atomic.Int64, clients), stop: make(chan struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		var buf [128]byte
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				v := r.read(&buf)
				for c := range r.peaks {
					for {
						old := r.peaks[c].Load()
						if v <= old || r.peaks[c].CompareAndSwap(old, v) {
							break
						}
					}
				}
			}
		}
	}()
	return r, nil
}

// read returns the current resident set in bytes: statm's second
// field, counted in pages.
func (r *rssSampler) read(buf *[128]byte) int64 {
	n, _ := r.statm.ReadAt(buf[:], 0) // io.EOF accompanies a short read; the bytes are what matters
	i := 0
	for i < n && buf[i] != ' ' {
		i++
	}
	var pages int64
	for i++; i < n && buf[i] >= '0' && buf[i] <= '9'; i++ {
		pages = pages*10 + int64(buf[i]-'0')
	}
	return pages * pageSize
}

// pageSize is the kernel page size statm counts in.
var pageSize = int64(os.Getpagesize())

// begin starts a client's op at the current resident set.
func (r *rssSampler) begin(client int) {
	var buf [128]byte
	r.peaks[client].Store(r.read(&buf))
}

// peak is the highest resident set seen since the client's op began.
func (r *rssSampler) peak(client int) int64 {
	var buf [128]byte
	if v, p := r.read(&buf), r.peaks[client].Load(); v > p {
		return v
	}
	return r.peaks[client].Load()
}

func (r *rssSampler) close() {
	close(r.stop)
	r.wg.Wait()
	r.statm.Close()
}
