package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/server"
)

// client is the load generator's side of the wire: one transport capped at
// the workload's connection budget, shared by scans, job submits and polls.
type client struct {
	http *http.Client
	base string
	keys []string // tenant API keys, used round-robin; empty without tenants
}

func newClient(base string, conns int, keys []string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, keys: keys}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// getJSON decodes a GET of an absolute URL.
func (c *client) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) do(ctx context.Context, method, path string, body []byte, key int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if len(c.keys) > 0 {
		req.Header.Set("X-API-Key", c.keys[key%len(c.keys)])
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// scanReply is the part of a scan response the benchmark reads.
type scanReply struct {
	SHA256       string       `json:"sha256"`
	Cached       bool         `json:"cached"`
	ModelVersion string       `json:"model_version"`
	Results      []scanResult `json:"results"`
}

// scanObs is one scheduled scan as the client saw it. Only what the checks
// and the analysis read is kept: the full reply only for the checked subset
// of inputs, so a long run's observations stay small.
type scanObs struct {
	input          int
	due, sent, end time.Time
	status         int // 0 = never sent (dropped at the end of a rung)
	err            error
	sum            digest // the reply's sha256
	cached         bool
	version        string
	results        []scanResult // checked inputs only
}

type scanResult struct {
	Model string  `json:"model"`
	Score float64 `json:"score"`
}

func (o *scanObs) latency() time.Duration { return o.end.Sub(o.due) }

// openLoopResult is one open-loop phase.
type openLoopResult struct {
	obs     []scanObs
	lag     []float64 // generator lateness per arrival, ms
	backlog int       // due but not yet sent when the schedule ended
}

// runOpenLoop sends sched from start on, each scan timed from when it was
// due. senders goroutines share the client's connections; a scan still
// unsent dropAfter from the start is dropped (counted, never sent). It
// returns once every sent scan has completed.
func runOpenLoop(ctx context.Context, c *client, in *inputs, sched []arrival, dur time.Duration, senders int, dropAfter time.Duration) openLoopResult {
	start := time.Now()
	dropAt := start.Add(dropAfter)
	res := openLoopResult{obs: make([]scanObs, len(sched)), lag: make([]float64, len(sched))}
	queue := make(chan int, len(sched)) // sized to the schedule: the dispatcher never blocks
	var sentN atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &res.obs[i]
				now := time.Now()
				if now.After(dropAt) {
					continue
				}
				sentN.Add(1)
				o.sent = now
				status, body, err := c.do(ctx, http.MethodPost, "/v1/scan", in.scans[o.input].raw, i)
				o.end = time.Now()
				o.status, o.err = status, err
				if err == nil && status == http.StatusOK {
					var r scanReply
					if o.err = json.Unmarshal(body, &r); o.err == nil {
						o.sum, o.cached, o.version = digestOf(r.SHA256), r.Cached, r.ModelVersion
						if checkedInput(in.scans[o.input].sum) {
							o.results = r.Results
						}
					}
				}
			}
		}()
	}
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.obs[i].input, res.obs[i].due = a.input, due
		res.lag[i] = float64(time.Since(due)) / 1e6
		queue <- i
	}
	if d := time.Until(start.Add(dur)); d > 0 {
		time.Sleep(d)
	}
	res.backlog = len(sched) - int(sentN.Load())
	close(queue)
	wg.Wait()
	return res
}

// jobObs is one attack job as the client saw it.
type jobObs struct {
	spec             jobSpec
	key              int
	submit, observed time.Time
	poll             string
	view             server.JobView
	err              error
	nextPoll         time.Time
	// verify is how long the benchmark's own replay of the server's
	// sandbox check on the AE took: the part of elapsed_ms after the
	// attack call.
	verify time.Duration
}

func (j *jobObs) terminal() bool {
	return j.view.State == server.JobDone || j.view.State == server.JobFailed
}

// pollDelay is how long to wait before polling a job again: an eighth of
// its age, between 1 ms and 20 ms. A quick job is observed within about a
// millisecond of finishing; a long one does not flood the server with
// polls, and no job's observed time is inflated by more than 12.5% (or
// 1 ms).
func pollDelay(age time.Duration) time.Duration {
	return min(max(age/8, time.Millisecond), 20*time.Millisecond)
}

// runJobs is the closed-loop attack client: one goroutine keeps n jobs
// outstanding, submitting from specs[next:] until `until` (or until limit
// jobs were submitted, when limit > 0), polling each outstanding job with
// ?ae=1 so a successful AE arrives with its terminal state. Jobs
// outstanding when submitting stops are waited for up to hardStop.
func runJobs(ctx context.Context, c *client, specs []jobSpec, next *int, n, limit int, until, hardStop time.Time) []*jobObs {
	var all, open []*jobObs
	submitting := func(now time.Time) bool { return now.Before(until) && (limit == 0 || len(all) < limit) }
	for {
		now := time.Now()
		for len(open) < n && submitting(now) {
			spec := specs[*next%len(specs)]
			j := &jobObs{spec: spec, key: *next, submit: time.Now()}
			*next++
			all = append(all, j)
			status, body, err := c.do(ctx, http.MethodPost, "/v1/attack?target="+spec.target, spec.input.raw, j.key)
			j.err = err
			if err == nil && status == http.StatusAccepted {
				var acc struct {
					Poll string `json:"poll"`
				}
				if j.err = json.Unmarshal(body, &acc); j.err == nil {
					j.poll = acc.Poll
					j.nextPoll = time.Now().Add(pollDelay(0))
					open = append(open, j)
				}
			} else if err == nil {
				j.err = fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(body))
			}
			now = time.Now()
		}
		if len(open) == 0 && !submitting(now) {
			return all
		}
		if now.After(hardStop) {
			for _, j := range open {
				j.err = fmt.Errorf("job %s not terminal at the run's hard stop", j.poll)
			}
			return all
		}
		wake := open[0].nextPoll
		for _, j := range open[1:] {
			if j.nextPoll.Before(wake) {
				wake = j.nextPoll
			}
		}
		if d := time.Until(wake); d > 0 {
			time.Sleep(d)
		}
		kept := open[:0]
		for _, j := range open {
			if time.Now().Before(j.nextPoll) {
				kept = append(kept, j)
				continue
			}
			status, body, err := c.do(ctx, http.MethodGet, j.poll+"?ae=1", nil, j.key)
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(body, &j.view)
			} else if err == nil {
				err = fmt.Errorf("poll: status %d", status)
			}
			now := time.Now()
			if err != nil {
				j.err, j.observed = err, now
				continue
			}
			if j.terminal() {
				j.observed = now
				continue
			}
			j.nextPoll = now.Add(pollDelay(now.Sub(j.submit)))
			kept = append(kept, j)
		}
		open = kept
	}
}
