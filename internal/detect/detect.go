// Package detect defines the ML-based static malware detectors the paper
// attacks, and the harness that trains them on the synthetic corpus.
//
// Four offline models mirror §IV-A:
//
//   - MalConv: gated byte-convolution network (Raff et al.).
//   - NonNeg: MalConv with a non-negative classification head
//     (Fleshman et al.), robust to content-appending washout.
//   - LightGBM: gradient-boosted trees over EMBER-style features
//     (Anderson & Roth); not differentiable, so — as in the paper's
//     footnote 6 — never used as a known model for the ensemble attack.
//   - MalGCG: a deeper, wider-receptive-field gated CNN standing in for
//     the constant-memory long-sequence classifier (Raff et al. 2021).
//
// Every detector exposes a calibrated hard-label decision; the byte-level
// networks additionally expose embedding-space input gradients for the
// transfer optimization of Eq. 3.
package detect

import (
	"fmt"
	"math/rand"
	"sort"

	"mpass/internal/corpus"
	"mpass/internal/features"
	"mpass/internal/gbdt"
	"mpass/internal/nn"
	"mpass/internal/parallel"
	"mpass/internal/tensor"
)

// Detector is a static malware classifier with a hard-label interface.
type Detector interface {
	// Name identifies the model in experiment tables.
	Name() string
	// Score returns P(malware | raw bytes).
	Score(raw []byte) float64
	// Label returns true when the sample is flagged malicious.
	Label(raw []byte) bool
}

// BatchScorer is implemented by detectors that amortize padding and
// dispatch across a whole batch of samples. Scores come back in input
// order and equal per-sample Score calls exactly.
type BatchScorer interface {
	ScoreBatch(raws [][]byte) []float64
}

// BatchLabeler is the hard-label counterpart of BatchScorer.
type BatchLabeler interface {
	LabelBatch(raws [][]byte) []bool
}

// ScoreAll scores every sample with d, through the batched path when the
// detector provides one and workers goroutines otherwise.
func ScoreAll(d Detector, raws [][]byte, workers int) []float64 {
	if bs, ok := d.(BatchScorer); ok {
		return bs.ScoreBatch(raws)
	}
	scores := make([]float64, len(raws))
	parallel.ForEach(workers, len(raws), func(i int) {
		scores[i] = d.Score(raws[i])
	})
	return scores
}

// LabelAll labels every sample with d, batched when possible.
func LabelAll(d Detector, raws [][]byte, workers int) []bool {
	if bl, ok := d.(BatchLabeler); ok {
		return bl.LabelBatch(raws)
	}
	labels := make([]bool, len(raws))
	parallel.ForEach(workers, len(raws), func(i int) {
		labels[i] = d.Label(raws[i])
	})
	return labels
}

// Thresholder is implemented by detectors whose hard label is exactly
// score >= threshold. The serving layer reads engine.Driver.Threshold
// instead; this interface remains because the benchmark harness
// (perfbench) compiles against it.
type Thresholder interface {
	DecisionThreshold() float64
}

func labelsFromScores(scores []float64, thr float64) []bool {
	labels := make([]bool, len(scores))
	for i, s := range scores {
		labels[i] = s >= thr
	}
	return labels
}

// GradientModel is a Detector whose score is differentiable with respect to
// the embedded input bytes — the requirement for membership in the MPass
// known-model ensemble.
type GradientModel interface {
	Detector
	InputGradient(raw []byte, target float64) *nn.InputGrad
	EmbedRow(b byte) tensor.Vec
	// EmbedMatrix exposes the full 256×EmbedDim embedding table (read-only;
	// aliases model storage) so the attack's byte-mapping step can score all
	// 256 candidate bytes with one mat-vec.
	EmbedMatrix() *tensor.Mat
	SeqLen() int
	EmbedDim() int
}

// ConvDetector wraps a ConvNet with a calibrated decision threshold.
type ConvDetector struct {
	ModelName string
	Net       *nn.ConvNet
	Threshold float64
}

// Name implements Detector.
func (d *ConvDetector) Name() string { return d.ModelName }

// Score implements Detector.
func (d *ConvDetector) Score(raw []byte) float64 { return d.Net.Predict(raw) }

// ScoreBatch implements BatchScorer over the network's pooled forward pass.
func (d *ConvDetector) ScoreBatch(raws [][]byte) []float64 { return d.Net.PredictBatch(raws) }

// Label implements Detector.
func (d *ConvDetector) Label(raw []byte) bool { return d.Score(raw) >= d.Threshold }

// LabelBatch implements BatchLabeler.
func (d *ConvDetector) LabelBatch(raws [][]byte) []bool {
	return labelsFromScores(d.ScoreBatch(raws), d.Threshold)
}

// InputGradient implements GradientModel.
func (d *ConvDetector) InputGradient(raw []byte, target float64) *nn.InputGrad {
	return d.Net.InputGradient(raw, target)
}

// EmbedRow implements GradientModel.
func (d *ConvDetector) EmbedRow(b byte) tensor.Vec { return d.Net.EmbedRow(b) }

// EmbedMatrix implements GradientModel.
func (d *ConvDetector) EmbedMatrix() *tensor.Mat { return d.Net.EmbedMatrix() }

// SeqLen implements GradientModel.
func (d *ConvDetector) SeqLen() int { return d.Net.SeqLen() }

// EmbedDim implements GradientModel.
func (d *ConvDetector) EmbedDim() int { return d.Net.EmbedDim() }

// GBDTDetector wraps a boosted-tree ensemble behind feature extraction.
type GBDTDetector struct {
	ModelName string
	Ensemble  *gbdt.Ensemble
	Threshold float64
	// Workers bounds ScoreBatch parallelism (<= 0 = GOMAXPROCS).
	Workers int
}

// Name implements Detector.
func (d *GBDTDetector) Name() string { return d.ModelName }

// Score implements Detector.
func (d *GBDTDetector) Score(raw []byte) float64 {
	return d.Ensemble.Predict(features.Extract(raw))
}

// ScoreBatch implements BatchScorer: feature extraction — the dominant cost
// — and tree walks fan out per sample.
func (d *GBDTDetector) ScoreBatch(raws [][]byte) []float64 {
	scores := make([]float64, len(raws))
	parallel.ForEach(d.Workers, len(raws), func(i int) {
		scores[i] = d.Score(raws[i])
	})
	return scores
}

// Label implements Detector.
func (d *GBDTDetector) Label(raw []byte) bool { return d.Score(raw) >= d.Threshold }

// LabelBatch implements BatchLabeler.
func (d *GBDTDetector) LabelBatch(raws [][]byte) []bool {
	return labelsFromScores(d.ScoreBatch(raws), d.Threshold)
}

// TrainConfig controls neural-detector training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	TargetFPR float64 // threshold calibration point
	Seed      int64
	// Workers bounds the data parallelism of minibatch training, threshold
	// calibration, and feature extraction (<= 0 = GOMAXPROCS). Trained
	// weights are bit-identical for every value.
	Workers int
}

// DefaultTrainConfig trains quickly to high accuracy on the synthetic
// corpus.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 40, BatchSize: 8, LR: 5e-3, TargetFPR: 0.01, Seed: 1}
}

// SeqLen is the byte window every neural detector sees. It comfortably
// covers original samples (~2–6 KB) and their adversarial variants
// (recovery section + perturbations), so tail appends remain visible to the
// models as they are to the paper's 1–2 MB MalConv window.
const SeqLen = 16384

// TrainMalConv trains the MalConv detector on the dataset's training split.
func TrainMalConv(ds *corpus.Dataset, cfg TrainConfig) (*ConvDetector, error) {
	net, err := nn.NewConvNet(nn.ConvConfig{
		SeqLen: SeqLen, EmbedDim: 4, Kernel: 8, Stride: 8, Filters: 8,
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return trainConv("MalConv", net, ds, cfg)
}

// TrainNonNeg trains the non-negative-head MalConv variant.
func TrainNonNeg(ds *corpus.Dataset, cfg TrainConfig) (*ConvDetector, error) {
	net, err := nn.NewConvNet(nn.ConvConfig{
		SeqLen: SeqLen, EmbedDim: 4, Kernel: 8, Stride: 8, Filters: 8,
		NonNeg: true, Seed: cfg.Seed + 100,
	})
	if err != nil {
		return nil, err
	}
	return trainConv("NonNeg", net, ds, cfg)
}

// TrainMalGCG trains the deep long-sequence stand-in.
func TrainMalGCG(ds *corpus.Dataset, cfg TrainConfig) (*ConvDetector, error) {
	net, err := nn.NewConvNet(nn.ConvConfig{
		SeqLen: SeqLen, EmbedDim: 4, Kernel: 32, Stride: 16, Filters: 12,
		Hidden: 8, Seed: cfg.Seed + 200,
	})
	if err != nil {
		return nil, err
	}
	return trainConv("MalGCG", net, ds, cfg)
}

// TrainConvCustom trains a gated-conv detector with a caller-chosen
// architecture — used by the commercial-AV simulators, whose member models
// differ from the offline suite in width, receptive field, and seed.
func TrainConvCustom(name string, arch nn.ConvConfig, ds *corpus.Dataset, cfg TrainConfig) (*ConvDetector, error) {
	net, err := nn.NewConvNet(arch)
	if err != nil {
		return nil, err
	}
	return trainConv(name, net, ds, cfg)
}

// TrainLightGBM trains the boosted-tree detector over EMBER-style features.
func TrainLightGBM(ds *corpus.Dataset, cfg TrainConfig) (*GBDTDetector, error) {
	xs := make([][]float64, len(ds.Train))
	ys := make([]float64, len(ds.Train))
	parallel.ForEach(cfg.Workers, len(ds.Train), func(i int) {
		xs[i] = features.Extract(ds.Train[i].Raw)
		ys[i] = label(ds.Train[i])
	})
	ens, err := gbdt.Train(xs, ys, gbdt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	d := &GBDTDetector{ModelName: "LightGBM", Ensemble: ens, Workers: cfg.Workers}
	d.Threshold = calibrate(d.ScoreBatch, ds.Train, cfg.TargetFPR)
	return d, nil
}

// trainConv is the shared minibatch loop for the neural detectors.
func trainConv(name string, net *nn.ConvNet, ds *corpus.Dataset, cfg TrainConfig) (*ConvDetector, error) {
	if len(ds.Train) == 0 {
		return nil, fmt.Errorf("detect: empty training split")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("detect: invalid train config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	opt := nn.NewAdam(cfg.LR)
	net.Workers = cfg.Workers

	idx := make([]int, len(ds.Train))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for at := 0; at < len(idx); at += cfg.BatchSize {
			end := at + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := make([][]byte, 0, end-at)
			ys := make([]float64, 0, end-at)
			for _, i := range idx[at:end] {
				batch = append(batch, ds.Train[i].Raw)
				ys = append(ys, label(ds.Train[i]))
			}
			epochLoss += net.TrainBatch(batch, ys, opt)
			batches++
		}
		if epochLoss/float64(batches) < 0.01 {
			break // converged early; the corpus signal is strong
		}
	}
	d := &ConvDetector{ModelName: name, Net: net}
	d.Threshold = calibrate(net.PredictBatch, ds.Train, cfg.TargetFPR)
	return d, nil
}

func label(s *corpus.Sample) float64 {
	if s.Family == corpus.Malware {
		return 1
	}
	return 0
}

// calibrate picks the decision threshold achieving the target false-positive
// rate on the benign portion of samples, clamped to at least 0.5. Scoring
// goes through the model's batched path, so calibration rides the pool.
func calibrate(scoreBatch func([][]byte) []float64, samples []*corpus.Sample, targetFPR float64) float64 {
	var benign [][]byte
	for _, s := range samples {
		if s.Family == corpus.Benign {
			benign = append(benign, s.Raw)
		}
	}
	if len(benign) == 0 {
		return 0.5
	}
	benignScores := scoreBatch(benign)
	sort.Float64s(benignScores)
	k := int(float64(len(benignScores)) * (1 - targetFPR))
	if k >= len(benignScores) {
		k = len(benignScores) - 1
	}
	thr := benignScores[k] + 1e-6
	if thr < 0.5 {
		thr = 0.5
	}
	if thr > 0.99 {
		thr = 0.99
	}
	return thr
}

// Accuracy evaluates a detector's hard-label accuracy on samples, through
// the batched labeling path.
func Accuracy(d Detector, samples []*corpus.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	labels := LabelAll(d, rawsOf(samples), 0)
	correct := 0
	for i, s := range samples {
		if labels[i] == (s.Family == corpus.Malware) {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// DetectedMalware filters samples to malware the detector currently flags —
// the paper's requirement (1) for attack-eligible samples.
func DetectedMalware(d Detector, samples []*corpus.Sample) []*corpus.Sample {
	labels := LabelAll(d, rawsOf(samples), 0)
	var out []*corpus.Sample
	for i, s := range samples {
		if s.Family == corpus.Malware && labels[i] {
			out = append(out, s)
		}
	}
	return out
}

func rawsOf(samples []*corpus.Sample) [][]byte {
	raws := make([][]byte, len(samples))
	for i, s := range samples {
		raws[i] = s.Raw
	}
	return raws
}

// TrainAll trains the full offline-model suite of §IV-A. The four models
// are independent — separate architectures, seeds, and gradient state over
// a read-only dataset — so they train concurrently on the Workers pool;
// every model's weights are the same as when trained alone.
func TrainAll(ds *corpus.Dataset, cfg TrainConfig) (malconv, nonneg *ConvDetector, lgbm *GBDTDetector, malgcg *ConvDetector, err error) {
	err = parallel.Do(cfg.Workers,
		func() (e error) { malconv, e = TrainMalConv(ds, cfg); return },
		func() (e error) { nonneg, e = TrainNonNeg(ds, cfg); return },
		func() (e error) { lgbm, e = TrainLightGBM(ds, cfg); return },
		func() (e error) { malgcg, e = TrainMalGCG(ds, cfg); return },
	)
	return
}
