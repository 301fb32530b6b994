package main

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"mpass/internal/engine"
	"mpass/internal/sandbox"
)

// checkResult counts the outputs the benchmark verified and the ones that
// were wrong. Every mismatch is kept as a message for the report.
type checkResult struct {
	scansChecked int
	aesChecked   int
	mismatches   []string
}

func (c *checkResult) fail(format string, args ...any) {
	c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
}

// checkedInput selects the deterministic subset of inputs whose scores are
// compared against direct scoring: one in eight, by content digest.
func checkedInput(sum digest) bool { return sum[0]%8 == 0 }

// checkReplies verifies a phase's 200 scan replies as they come in: each
// must name the scanned digest and the set's model version. It returns the
// replies of the checked subset, for checkScores once the clock stops.
func checkReplies(c *checkResult, set *engine.Set, in *inputs, obs []scanObs) []scanObs {
	var keep []scanObs
	for _, o := range obs {
		if o.status != 200 || o.err != nil {
			continue
		}
		want := in.scans[o.input]
		switch {
		case o.sum != want.sum:
			c.fail("scan of input %d: reply sha256 %x, want %x", o.input, o.sum, want.sum)
		case o.version != set.Version():
			c.fail("scan of input %d: model_version %q, want %q", o.input, o.version, set.Version())
		case checkedInput(want.sum):
			keep = append(keep, o)
		}
	}
	return keep
}

// checkScores compares the checked replies' scores with a direct
// Driver.Score on the same engines: they must be bit-identical.
func checkScores(c *checkResult, set *engine.Set, in *inputs, obs []scanObs) {
	direct := map[int][]float64{}
	for _, o := range obs {
		scores, ok := direct[o.input]
		if !ok {
			for _, d := range set.Drivers() {
				scores = append(scores, d.Score(in.scans[o.input].raw))
			}
			direct[o.input] = scores
		}
		c.scansChecked++
		if len(o.results) != len(scores) {
			c.fail("scan of input %d: %d results, want %d", o.input, len(o.results), len(scores))
			continue
		}
		for k, r := range o.results {
			if r.Model != set.Names()[k] || math.Float64bits(r.Score) != math.Float64bits(scores[k]) {
				c.fail("scan of input %d: %s scored %v, direct %s.Score = %v",
					o.input, r.Model, r.Score, set.Names()[k], scores[k])
			}
		}
	}
}

// checkJobs verifies every successful attack job: the AE fetched with
// ?ae=1 must hash to the reported digest, the sandbox must agree with the
// reported functionality verdict, and the target engine, asked directly,
// must label the AE benign.
func checkJobs(c *checkResult, h *host, jobs []*jobObs) {
	for _, j := range jobs {
		if j.err != nil || !j.terminal() || j.view.Success == nil || !*j.view.Success {
			continue
		}
		c.aesChecked++
		ae, err := base64.StdEncoding.DecodeString(j.view.AEBase64)
		if err != nil || len(ae) == 0 {
			c.fail("job %s: AE missing from ?ae=1 view", j.view.ID)
			continue
		}
		sum := sha256.Sum256(ae)
		if hex.EncodeToString(sum[:]) != j.view.AESHA256 || len(ae) != j.view.AESize {
			c.fail("job %s: AE bytes do not match ae_sha256/ae_size", j.view.ID)
			continue
		}
		start := time.Now()
		preserved, err := sandbox.BehaviourPreserved(j.spec.input.raw, ae)
		j.verify = time.Since(start)
		if err != nil {
			c.fail("job %s: sandbox: %v", j.view.ID, err)
			continue
		}
		if j.view.Functional == nil || *j.view.Functional != preserved {
			c.fail("job %s: functionality_preserved %v, sandbox says %v", j.view.ID, j.view.Functional, preserved)
		}
		target, ok := h.replicaForJob(j.poll).set.Get(j.spec.target)
		if !ok {
			c.fail("job %s: target %s not resident", j.view.ID, j.spec.target)
			continue
		}
		if target.Label(ae) {
			c.fail("job %s: reported success, but %s.Label(AE) says malicious", j.view.ID, j.spec.target)
		}
	}
}

// replicaForJob resolves the replica that ran a job from its poll path:
// gateway job IDs carry the replica address as their first segment.
func (h *host) replicaForJob(poll string) *replica {
	if addr, _, ok := strings.Cut(strings.TrimPrefix(poll, "/v1/jobs/"), "/"); ok {
		for _, r := range h.reps {
			if r.addr == addr {
				return r
			}
		}
	}
	return h.reps[0]
}
