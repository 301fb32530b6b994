package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"

	"mpass/internal/av"
	"mpass/internal/detect"
	"mpass/internal/parallel"
)

// Driver implementations for every model family in the repo. The conv and
// tree drivers embed their detect counterparts, so the full capability
// surface (BatchScorer, Streamer, GradientModel, Quantizer)
// promotes through and the probes find it without unwrapping; versions are
// content digests of the serialized weights, computed once at construction.

// payloadDigest is the content-addressed engine version: a digest of the
// serialized weight payload, so identical bytes always mean identical
// version — the property the reload drill's bit-identity assertion keys on.
func payloadDigest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:8])
}

// encodePayload gobs a detector into the envelope payload form.
func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ConvDriver plugs a gated-conv detector (MalConv, NonNeg, MalGCG) into the
// registry. Streaming, gradients, and quantization all promote from the
// embedded detector.
type ConvDriver struct {
	*detect.ConvDetector
	version string
}

// NewConvDriver wraps d, deriving the version from its serialized weights.
func NewConvDriver(d *detect.ConvDetector) (*ConvDriver, error) {
	if d == nil || d.Net == nil {
		return nil, fmt.Errorf("engine: nil conv detector")
	}
	payload, err := encodePayload(d)
	if err != nil {
		return nil, fmt.Errorf("engine: serializing %s: %w", d.Name(), err)
	}
	return &ConvDriver{ConvDetector: d, version: payloadDigest(payload)}, nil
}

// Threshold implements Driver (shadowing the embedded threshold field).
func (d *ConvDriver) Threshold() float64 { return d.ConvDetector.Threshold }

// Version implements Driver.
func (d *ConvDriver) Version() string { return d.version }

// Health implements Driver.
func (d *ConvDriver) Health() error {
	if d.ConvDetector == nil || d.ConvDetector.Net == nil {
		return fmt.Errorf("engine: conv driver has no network")
	}
	return nil
}

// Unwrap implements Unwrapper.
func (d *ConvDriver) Unwrap() detect.Detector { return d.ConvDetector }

// GBDTDriver plugs the boosted-tree detector into the registry. It streams
// (feature extraction is incremental) but is not differentiable, so the
// gradient probe correctly excludes it from known-model ensembles.
type GBDTDriver struct {
	*detect.GBDTDetector
	version string
}

// NewGBDTDriver wraps d, deriving the version from its serialized weights.
func NewGBDTDriver(d *detect.GBDTDetector) (*GBDTDriver, error) {
	if d == nil || d.Ensemble == nil {
		return nil, fmt.Errorf("engine: nil gbdt detector")
	}
	payload, err := encodePayload(d)
	if err != nil {
		return nil, fmt.Errorf("engine: serializing %s: %w", d.Name(), err)
	}
	return &GBDTDriver{GBDTDetector: d, version: payloadDigest(payload)}, nil
}

// Threshold implements Driver (shadowing the embedded threshold field).
func (d *GBDTDriver) Threshold() float64 { return d.GBDTDetector.Threshold }

// Version implements Driver.
func (d *GBDTDriver) Version() string { return d.version }

// Health implements Driver.
func (d *GBDTDriver) Health() error {
	if d.GBDTDetector == nil || d.GBDTDetector.Ensemble == nil {
		return fmt.Errorf("engine: gbdt driver has no ensemble")
	}
	return nil
}

// Unwrap implements Unwrapper.
func (d *GBDTDriver) Unwrap() detect.Detector { return d.GBDTDetector }

// AVDriver plugs a commercial-AV simulator into the registry. AVs are
// hard-label-only (one bit per query, like the VirusTotal interface the
// paper attacks), so Score degenerates to {0, 1} around a 0.5 threshold.
// Ensemble members are live heterogeneous objects, not serializable weights;
// AV drivers register at runtime only and SaveEngine rejects them.
type AVDriver struct {
	av      *av.AV
	version string
	// Workers bounds ScoreBatch parallelism (<= 0 = GOMAXPROCS).
	Workers int
}

// NewAVDriver wraps a; version labels the simulator build (empty derives a
// stable "live-<name>" tag).
func NewAVDriver(a *av.AV, version string) (*AVDriver, error) {
	if a == nil {
		return nil, fmt.Errorf("engine: nil AV")
	}
	if version == "" {
		version = "live-" + a.Name()
	}
	return &AVDriver{av: a, version: version}, nil
}

// Name implements Driver.
func (d *AVDriver) Name() string { return d.av.Name() }

// Score implements Driver: the hard verdict as a degenerate score.
func (d *AVDriver) Score(raw []byte) float64 {
	if d.av.Detected(raw) {
		return 1
	}
	return 0
}

// Label implements Driver.
func (d *AVDriver) Label(raw []byte) bool { return d.av.Detected(raw) }

// ScoreBatch implements Driver; member checks fan out per sample.
func (d *AVDriver) ScoreBatch(raws [][]byte) []float64 {
	scores := make([]float64, len(raws))
	parallel.ForEach(d.Workers, len(raws), func(i int) {
		scores[i] = d.Score(raws[i])
	})
	return scores
}

// Threshold implements Driver.
func (d *AVDriver) Threshold() float64 { return 0.5 }

// Version implements Driver.
func (d *AVDriver) Version() string { return d.version }

// Health implements Driver.
func (d *AVDriver) Health() error {
	if d.av == nil {
		return fmt.Errorf("engine: AV driver has no ensemble")
	}
	return nil
}

// AV exposes the wrapped simulator (the learning loop's LearnRound lives
// there).
func (d *AVDriver) AV() *av.AV { return d.av }

// FromSuite wraps the trained offline suite into a driver Set, preserving
// the paper's §IV-A order: the bridge from the training harness to the
// registry and to per-engine envelopes.
func FromSuite(s *detect.Suite) (*Set, error) {
	if s == nil {
		return nil, fmt.Errorf("engine: nil suite")
	}
	malconv, err := NewConvDriver(s.MalConv)
	if err != nil {
		return nil, err
	}
	nonneg, err := NewConvDriver(s.NonNeg)
	if err != nil {
		return nil, err
	}
	lgbm, err := NewGBDTDriver(s.LGBM)
	if err != nil {
		return nil, err
	}
	malgcg, err := NewConvDriver(s.MalGCG)
	if err != nil {
		return nil, err
	}
	return NewSet(malconv, nonneg, lgbm, malgcg)
}
