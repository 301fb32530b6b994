package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/corpus"
	"mpass/internal/parallel"
)

// tally is one stream's outcome count. It holds plain values so the judge
// is a pure function of it; requests fill a private tally and merge it into
// their stream's under a lock.
type tally struct {
	OK, Shed, Failed   int64
	Unexpected         int64 // responses other than the stream's expected status
	JobsDone, JobsLost int64 // attack jobs that ended "done" / "failed"
	Audited, Incorrect int64 // 200 scans checked by the score audit / that failed it
	BadRetryAfter      int64 // 429s without an integer Retry-After >= 1
	Scans              int64 // 200-answered scans, chunked uploads included
	Streams            int64 // 200-answered chunked uploads
	StreamedBytes      int64 // bytes in those uploads
	Lat                []time.Duration
}

func (t *tally) add(o *tally) {
	t.OK += o.OK
	t.Shed += o.Shed
	t.Failed += o.Failed
	t.Unexpected += o.Unexpected
	t.JobsDone += o.JobsDone
	t.JobsLost += o.JobsLost
	t.Audited += o.Audited
	t.Incorrect += o.Incorrect
	t.BadRetryAfter += o.BadRetryAfter
	t.Scans += o.Scans
	t.Streams += o.Streams
	t.StreamedBytes += o.StreamedBytes
	t.Lat = append(t.Lat, o.Lat...)
}

func (t *tally) total() int64 { return t.OK + t.Shed + t.Failed }

// classify reports whether a response carries want, the request's success
// status, which the caller then tallies; it tallies every other response
// itself. A stream with an expected status counts exactly that status as
// ok and anything else as failed and unexpected. A 429 must carry an
// integer Retry-After >= 1 whatever else happens.
func (t *tally) classify(resp *http.Response, want, expect int) bool {
	code := resp.StatusCode
	if code == http.StatusTooManyRequests {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
			t.BadRetryAfter++
		}
	}
	switch {
	case expect != 0 && code != expect:
		t.Unexpected++
		t.Failed++
	case code == want:
		return true
	case expect != 0:
		t.OK++
	case code == http.StatusTooManyRequests:
		t.Shed++
	default:
		t.Failed++
	}
	return false
}

// runner holds the state one scenario execution shares across phases.
type runner struct {
	sc    *scenarioFile
	bases []string // replica base URLs, by index
	gw    string   // gateway base URL ("" without one)

	pools map[poolKey][][]byte

	// scores audits correctness: (sha256 | model_version) -> the score
	// fingerprint first observed for it. A later response disagreeing is a
	// correctness failure: different verdicts for identical bytes under one
	// model generation.
	scores sync.Map
	uniq   atomic.Int64 // cache-miss body uniquifier

	reloadMu sync.Mutex // serialises reloads, so last[] follows swap order

	mu       sync.Mutex
	served   map[string]bool //mpass:guardedby mu — generations the fleet has served
	seen     map[string]bool //mpass:guardedby mu — generations scan responses carried
	last     []string        //mpass:guardedby mu — per replica: its generation after the latest swap
	problems []string        //mpass:guardedby mu — invariant violations found mid-run
}

func newRunner(sc *scenarioFile, bases []string, gw string) *runner {
	return &runner{
		sc: sc, bases: bases, gw: gw,
		pools:  map[poolKey][][]byte{},
		served: map[string]bool{},
		seen:   map[string]bool{},
		last:   make([]string, len(bases)),
	}
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *runner) base(t target) string {
	if t.gateway {
		return r.gw
	}
	return r.bases[t.replica]
}

// pool returns the phase's sample pool: malware and benign PEs from the
// generator family mpassd trains on, so scores span both sides of the
// thresholds.
func (r *runner) pool(ph *phaseSpec) [][]byte {
	key := ph.pool
	if p, ok := r.pools[key]; ok {
		return p
	}
	g := corpus.NewGenerator(key.seed + 31000)
	p := make([][]byte, key.samples)
	for i := range p {
		fam := corpus.Benign
		if i%2 == 0 {
			fam = corpus.Malware
		}
		p[i] = g.Sample(fam).Raw
	}
	r.pools[key] = p
	return p
}

// drive runs the phase's streams concurrently — that is what makes a
// contention phase a contention phase — each on its own client pool, and
// returns each stream's tally and how many reloads swapped.
func (r *runner) drive(ph *phaseSpec) ([]tally, int) {
	pool := r.pool(ph)
	base := r.base(ph.target)
	reloads, total := 0, 0
	for _, a := range ph.actions {
		if a.kind == "reload" {
			reloads += a.arg
		}
	}
	for _, st := range ph.Streams {
		total += st.Requests
	}
	interval := int64(total / (reloads + 1)) // >= 1: parseScenario bounds reloads by requests
	var seq, swaps atomic.Int64
	tallies := make([]tally, len(ph.Streams))
	var mu sync.Mutex // guards tallies
	parallel.ForEach(len(ph.Streams), len(ph.Streams), func(si int) {
		st := ph.Streams[si]
		key := r.sc.Tenants[st.Tenant]
		kinds := schedule(st.Traffic, st.Requests)
		parallel.ForEach(st.Clients, st.Requests, func(i int) {
			// Reloads fire at evenly spaced points of the phase's request
			// sequence: request k·interval for k = 1..reloads.
			if n := seq.Add(1) - 1; n > 0 && n%interval == 0 && n/interval <= int64(reloads) {
				if r.reload(ph.target.replica) {
					swaps.Add(1)
				}
			}
			var d tally
			body := pool[i%len(pool)]
			switch kinds[i] {
			case "scan":
				r.scan(base, key, body, st.Expect, &d)
			case "cachemiss":
				// A globally unique suffix defeats the score cache, forcing the
				// full batcher path; the audit still pins its scores.
				body = append(append([]byte(nil), body...), fmt.Sprintf("::miss-%d", r.uniq.Add(1))...)
				r.scan(base, key, body, st.Expect, &d)
			case "attack":
				r.attack(base, key, body, st.Expect, &d)
			case "stream":
				r.stream(base, key, streamBytes, uint64(si)<<32|uint64(i)|1, st.Expect, &d)
			}
			mu.Lock()
			tallies[si].add(&d)
			mu.Unlock()
		})
	})
	return tallies, int(swaps.Load())
}

// send performs one request, presenting key as X-API-Key when non-empty,
// and returns the response with its body read.
func send(method, url, key string, body io.Reader) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

func (r *runner) scan(base, key string, body []byte, expect int, d *tally) {
	t0 := time.Now()
	resp, data, err := send(http.MethodPost, base+"/v1/scan", key, bytes.NewReader(body))
	if err != nil {
		d.Failed++
		return
	}
	if !d.classify(resp, http.StatusOK, expect) {
		return
	}
	d.Lat = append(d.Lat, time.Since(t0))
	d.OK++
	d.Scans++
	sum := sha256.Sum256(body)
	r.audit(data, hex.EncodeToString(sum[:]), d)
}

// streamBytes is the size of every "stream" upload: past mpass-gateway's
// default 1 MiB buffer, so a gateway spools it to disk.
const streamBytes = 2 << 20

// stream POSTs a chunked upload of size bytes (no Content-Length, so the
// replica must take the O(chunk) streaming path).
func (r *runner) stream(base, key string, size int64, seed uint64, expect int, d *tally) {
	resp, data, err := send(http.MethodPost, base+"/v1/scan", key, &patternBody{remaining: size, state: seed})
	if err != nil {
		d.Failed++
		return
	}
	if !d.classify(resp, http.StatusOK, expect) {
		return
	}
	d.OK++
	d.Scans++
	d.Streams++
	d.StreamedBytes += size
	h := sha256.New()
	io.Copy(h, &patternBody{remaining: size, state: seed})
	r.audit(data, hex.EncodeToString(h.Sum(nil)), d)
}

// attack submits one job and polls it to a terminal state. Both terminal
// states are served requests; a job stuck past two minutes is a failure.
func (r *runner) attack(base, key string, body []byte, expect int, d *tally) {
	resp, data, err := send(http.MethodPost, base+"/v1/attack", key, bytes.NewReader(body))
	if err != nil {
		d.Failed++
		return
	}
	if !d.classify(resp, http.StatusAccepted, expect) {
		return
	}
	var acc struct {
		Poll string `json:"poll"`
	}
	if json.Unmarshal(data, &acc) != nil || acc.Poll == "" {
		d.Failed++
		return
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var job struct {
			State string `json:"state"`
		}
		resp, data, err := send(http.MethodGet, base+acc.Poll, key, nil)
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(data, &job) != nil {
			d.Failed++
			return
		}
		switch job.State {
		case "done":
			d.OK++
			d.JobsDone++
			return
		case "failed":
			d.OK++
			d.JobsLost++
			return
		}
		if time.Now().After(deadline) {
			d.Failed++
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// audit pins (sha256, model_version) -> scores: the first response wins,
// and every later response for the same pair must agree exactly. The
// response must also hash the bytes that were sent.
func (r *runner) audit(data []byte, sha string, d *tally) {
	var doc struct {
		SHA256       string `json:"sha256"`
		ModelVersion string `json:"model_version"`
		Results      []struct {
			Model string  `json:"model"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	d.Audited++
	if json.Unmarshal(data, &doc) != nil || doc.SHA256 != sha {
		d.Incorrect++
		return
	}
	r.mu.Lock()
	r.seen[doc.ModelVersion] = true
	r.mu.Unlock()
	var fp strings.Builder
	for _, res := range doc.Results {
		fmt.Fprintf(&fp, "%s=%x;", res.Model, res.Score)
	}
	if prev, loaded := r.scores.LoadOrStore(doc.SHA256+"|"+doc.ModelVersion, fp.String()); loaded && prev.(string) != fp.String() {
		d.Incorrect++
	}
}

// reload swaps replica i's model generation. The swap must land: a 501 (no
// loader) or 422 (certification refused) under a drill is a deployment
// bug, not load shedding.
func (r *runner) reload(i int) bool {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	resp, data, err := send(http.MethodPost, r.bases[i]+"/v1/models/reload", "", nil)
	if err != nil {
		r.fail("reload on replica:%d: %v", i, err)
		return false
	}
	var doc struct {
		Swapped      bool   `json:"swapped"`
		ModelVersion string `json:"model_version"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &doc) != nil || !doc.Swapped || doc.ModelVersion == "" {
		r.fail("reload on replica:%d did not swap: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(data))
		return false
	}
	r.mu.Lock()
	r.served[doc.ModelVersion] = true
	r.last[i] = doc.ModelVersion
	r.mu.Unlock()
	return true
}

// patternBody generates n pseudo-random bytes on the fly, so the client
// never holds the upload either — both ends of the wire stay O(chunk).
type patternBody struct {
	remaining int64
	state     uint64
}

func (p *patternBody) Read(b []byte) (int, error) {
	if p.remaining <= 0 {
		return 0, io.EOF
	}
	n := len(b)
	if int64(n) > p.remaining {
		n = int(p.remaining)
	}
	for i := 0; i < n; i++ {
		p.state = p.state*6364136223846793005 + 1442695040888963407
		b[i] = byte(p.state >> 56)
	}
	p.remaining -= int64(n)
	return n, nil
}

// trafficOrder fixes the order kinds are counted and interleaved in, so a
// stream's schedule is a pure function of its weights and request count.
var trafficOrder = [...]string{"scan", "cachemiss", "attack", "stream"}

// kindCounts returns how many of a stream's requests each kind of
// trafficOrder sends. Each kind with a positive weight w sends a fixed
// max(1, round(w/total · requests)), so a small weight still sends at
// least one request whatever the seed; the heaviest kind sends the rest.
// An empty mix is all "scan". ok is false when the stream has too few
// requests to give every weighted kind its count.
func kindCounts(traffic map[string]float64, requests int) (counts [len(trafficOrder)]int, ok bool) {
	total, heaviest := 0.0, 0
	for k, kind := range trafficOrder {
		total += traffic[kind]
		if traffic[kind] > traffic[trafficOrder[heaviest]] {
			heaviest = k
		}
	}
	if total <= 0 {
		counts[0] = requests
		return counts, true
	}
	rest := requests
	for k, kind := range trafficOrder {
		if w := traffic[kind]; w > 0 && k != heaviest {
			counts[k] = max(1, int(math.Round(w/total*float64(requests))))
			rest -= counts[k]
		}
	}
	counts[heaviest] = rest
	return counts, rest >= 1
}

// schedule assigns a kind to each of a stream's requests: kindCounts'
// counts, interleaved by smooth weighted round robin so each kind's
// requests spread evenly across the stream instead of bunching.
func schedule(traffic map[string]float64, requests int) []string {
	counts, _ := kindCounts(traffic, requests)
	kinds := make([]string, requests)
	var credit [len(trafficOrder)]int
	for i := range kinds {
		best := -1
		for k, c := range counts {
			if c == 0 {
				continue
			}
			credit[k] += c
			if best < 0 || credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= requests
		kinds[i] = trafficOrder[best]
	}
	return kinds
}
