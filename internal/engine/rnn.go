// The RNN engine: the recurrent byte language model of internal/nn/rnn.go
// (MalRNN's generative core) repurposed as a detector. Trained on benign
// program bytes only, the LM assigns low perplexity to byte streams that
// look like ordinary software and high perplexity to packed, encrypted, or
// synthetic malware content — a language-model anomaly detector in the
// spirit of the one-class baselines surveyed alongside MalConv. The squashed
// score is sigmoid((perplexity - benign mean) / scale), so it lands in
// (0, 1) like every other engine and calibrates the same way.
package engine

import (
	"fmt"
	"math"
	"sort"

	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/nn"
	"mpass/internal/parallel"
	"mpass/internal/tensor"
)

// RNNDetector scores byte sequences by benign-LM perplexity. Exported
// fields are the trained state; the zero value is unusable — build with
// TrainRNN or load from an envelope.
type RNNDetector struct {
	ModelName string
	LM        *nn.ByteLM
	// RefPPL/Scale normalize raw perplexity before the sigmoid squash:
	// benign-corpus mean and spread, fixed at train time.
	RefPPL float64
	Scale  float64
	// Thresh is the calibrated decision threshold on the squashed score.
	Thresh float64
	// MaxBytes is the scored prefix cap — the RNN's counterpart of the conv
	// models' SeqLen window.
	MaxBytes int
}

// Name implements detect.Detector.
func (d *RNNDetector) Name() string { return d.ModelName }

// Score implements detect.Detector: squashed perplexity of the scored
// prefix.
func (d *RNNDetector) Score(raw []byte) float64 {
	if d.MaxBytes > 0 && len(raw) > d.MaxBytes {
		raw = raw[:d.MaxBytes]
	}
	return d.squash(d.LM.Perplexity(raw))
}

// squash maps raw perplexity into (0, 1].
func (d *RNNDetector) squash(ppl float64) float64 {
	return 1 / (1 + math.Exp(-(ppl-d.RefPPL)/d.Scale))
}

// Label implements detect.Detector.
func (d *RNNDetector) Label(raw []byte) bool { return d.Score(raw) >= d.Thresh }

// ScoreBatch implements the batched path; recurrent evaluation has no
// cross-sample amortization, so samples simply fan out.
func (d *RNNDetector) ScoreBatch(raws [][]byte) []float64 {
	scores := make([]float64, len(raws))
	parallel.ForEach(0, len(raws), func(i int) {
		scores[i] = d.Score(raws[i])
	})
	return scores
}

// rnnStream evaluates perplexity incrementally: the hidden state advances
// byte by byte as chunks arrive, so memory is O(hidden) regardless of body
// size and the result is bit-identical to the buffered Score (same ops in
// the same order — Perplexity's loop unrolled across Feed calls).
type rnnStream struct {
	d   *RNNDetector
	h   tensor.Vec
	n   int
	nll float64
}

// NewStream implements detect.Streamer.
func (d *RNNDetector) NewStream() detect.ScoreStream {
	return &rnnStream{d: d, h: tensor.NewVec(d.LM.Hidden)}
}

// Feed implements detect.ScoreStream.
func (s *rnnStream) Feed(p []byte) {
	lm := s.d.LM
	for _, b := range p {
		if s.d.MaxBytes > 0 && s.n >= s.d.MaxBytes {
			return
		}
		if s.n > 0 {
			// s.h has stepped through bytes [0, n): it predicts byte n = b,
			// exactly Perplexity's iteration t = n-1.
			pr := lm.NextProb(s.h, b)
			s.nll -= math.Log(math.Max(pr, 1e-12))
		}
		s.h = lm.StepState(s.h, b)
		s.n++
	}
}

// Finish implements detect.ScoreStream.
func (s *rnnStream) Finish() float64 {
	t := s.n - 1
	if t < 1 {
		return s.d.squash(math.Inf(1))
	}
	return s.d.squash(math.Exp(s.nll / float64(t)))
}

// Streamer/gradient capability note: RNNDetector streams but is recurrent,
// not differentiable w.r.t. a fixed embedding window, so GradientOf
// correctly leaves it out of known-model ensembles.

// RNNConfig sizes RNN-detector training.
type RNNConfig struct {
	EmbedDim, Hidden int
	// Chunk is the BPTT truncation length; Epochs sweeps the benign split.
	Chunk, Epochs int
	LR            float64
	TargetFPR     float64
	Seed          int64
	// MaxBytes caps the scored prefix (default 4096).
	MaxBytes int
}

// DefaultRNNConfig trains a small model quickly on the synthetic corpus.
func DefaultRNNConfig() RNNConfig {
	return RNNConfig{EmbedDim: 8, Hidden: 16, Chunk: 256, Epochs: 1, LR: 5e-3, TargetFPR: 0.05, Seed: 1, MaxBytes: 4096}
}

// TrainRNN trains the benign byte LM on the dataset's benign training split
// and calibrates the perplexity normalization and decision threshold.
func TrainRNN(ds *corpus.Dataset, cfg RNNConfig) (*RNNDetector, error) {
	if cfg.EmbedDim <= 0 || cfg.Hidden <= 0 || cfg.Chunk < 2 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("engine: invalid RNN config %+v", cfg)
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 4096
	}
	var benign [][]byte
	for _, s := range ds.Train {
		if s.Family == corpus.Benign {
			benign = append(benign, s.Raw)
		}
	}
	if len(benign) == 0 {
		return nil, fmt.Errorf("engine: no benign samples to train the byte LM on")
	}

	lm := nn.NewByteLM(cfg.EmbedDim, cfg.Hidden, cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, raw := range benign {
			limit := len(raw)
			if limit > cfg.MaxBytes {
				limit = cfg.MaxBytes
			}
			for at := 0; at+2 <= limit; at += cfg.Chunk {
				end := at + cfg.Chunk
				if end > limit {
					end = limit
				}
				if _, err := lm.TrainChunk(raw[at:end], opt); err != nil {
					return nil, err
				}
			}
		}
	}

	// Normalize against the benign perplexity distribution, then calibrate
	// the threshold at the target FPR on the same split (detect.calibrate's
	// recipe, on the squashed score).
	ppls := make([]float64, len(benign))
	parallel.ForEach(0, len(benign), func(i int) {
		raw := benign[i]
		if len(raw) > cfg.MaxBytes {
			raw = raw[:cfg.MaxBytes]
		}
		ppls[i] = lm.Perplexity(raw)
	})
	var mean float64
	for _, p := range ppls {
		mean += p
	}
	mean /= float64(len(ppls))
	var varsum float64
	for _, p := range ppls {
		varsum += (p - mean) * (p - mean)
	}
	scale := math.Sqrt(varsum / float64(len(ppls)))
	if scale < 1 {
		scale = 1
	}

	d := &RNNDetector{ModelName: "RNN-PPL", LM: lm, RefPPL: mean, Scale: scale, MaxBytes: cfg.MaxBytes}
	scores := make([]float64, len(ppls))
	for i, p := range ppls {
		scores[i] = d.squash(p)
	}
	sort.Float64s(scores)
	k := int(float64(len(scores)) * (1 - cfg.TargetFPR))
	if k >= len(scores) {
		k = len(scores) - 1
	}
	thr := scores[k] + 1e-6
	if thr < 0.5 {
		thr = 0.5
	}
	if thr > 0.99 {
		thr = 0.99
	}
	d.Thresh = thr
	return d, nil
}

// NewRNNDriver wraps a trained RNN detector, deriving the version from its
// serialized weights.
func NewRNNDriver(d *RNNDetector) (*RNNDriver, error) {
	if d == nil || d.LM == nil {
		return nil, fmt.Errorf("engine: nil RNN detector")
	}
	payload, err := encodePayload(d)
	if err != nil {
		return nil, fmt.Errorf("engine: serializing %s: %w", d.Name(), err)
	}
	return &RNNDriver{RNNDetector: d, version: payloadDigest(payload)}, nil
}

// RNNDriver plugs the perplexity detector into the registry.
type RNNDriver struct {
	*RNNDetector
	version string
}

// Threshold implements Driver.
func (d *RNNDriver) Threshold() float64 { return d.RNNDetector.Thresh }

// Version implements Driver.
func (d *RNNDriver) Version() string { return d.version }

// Health implements Driver.
func (d *RNNDriver) Health() error {
	if d.RNNDetector == nil || d.RNNDetector.LM == nil {
		return fmt.Errorf("engine: RNN driver has no language model")
	}
	return nil
}

// Unwrap implements Unwrapper.
func (d *RNNDriver) Unwrap() detect.Detector { return d.RNNDetector }
