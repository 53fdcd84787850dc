package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinLead is how long before a due time a client worker stops
// sleeping and starts spinning.
const spinLead = time.Millisecond

// plannedRequest is one request of an open-loop schedule.
type plannedRequest struct {
	due  time.Duration // offset from the step start
	path string
	body []byte
	kind string // request class, for the output check
	tag  int    // class-specific index (hot pair, fresh sample slot)
	key  string // the pair of a fresh request
}

// outcome is what happened to one planned request. Latency is measured
// from the due time, so a request that waited for a busy client slot
// carries that wait; lag is how late it was sent.
type outcome struct {
	latency time.Duration
	lag     time.Duration
	status  int
	body    []byte
	err     error
}

// openLoop sends a schedule from a fixed set of client workers, each
// holding at most one connection. A worker takes the next request in
// due order as soon as it is free and sends it when due, or at once if
// it is already late. Requests later than maxLag when a worker reaches
// them are not sent and count as failed. openLoop returns once every
// request has completed or been dropped.
type openLoop struct {
	client  *http.Client
	base    string
	workers int
	maxLag  time.Duration
}

func newClient(workers int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
}

func (l *openLoop) run(ctx context.Context, plan []plannedRequest) []outcome {
	out := make([]outcome, len(plan))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) || ctx.Err() != nil {
					return
				}
				out[i] = l.send(ctx, start, plan[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func (l *openLoop) send(ctx context.Context, start time.Time, p plannedRequest) outcome {
	due := start.Add(p.due)
	// Timers fire up to a scheduler tick late; sleep to within spinLead
	// of the due time and spin the rest, so the generator's own wake-up
	// slop does not show up as request latency.
	if wait := time.Until(due) - spinLead; wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return outcome{err: ctx.Err()}
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	sent := time.Now()
	o := outcome{lag: sent.Sub(due)}
	if l.maxLag > 0 && o.lag > l.maxLag {
		o.err = errTooLate
		o.latency = o.lag
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+p.path, bytes.NewReader(p.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.err = err
	o.latency = time.Since(due)
	return o
}

var errTooLate = errors.New("request dropped: generator more than maxLag behind schedule")
