package detect

import "mpass/internal/corpus"

// Suite is the offline-model set of §IV-A as the experiments train it.
// Serving and persistence take it through engine.FromSuite, which wraps
// each member in a driver that saves as its own envelope.
type Suite struct {
	MalConv *ConvDetector
	NonNeg  *ConvDetector
	LGBM    *GBDTDetector
	MalGCG  *ConvDetector
}

// TrainSuite trains the full offline suite (see TrainAll) into a Suite.
func TrainSuite(ds *corpus.Dataset, cfg TrainConfig) (*Suite, error) {
	s := &Suite{}
	var err error
	s.MalConv, s.NonNeg, s.LGBM, s.MalGCG, err = TrainAll(ds, cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// OfflineTargets lists the §IV-A models in paper order.
func (s *Suite) OfflineTargets() []Detector {
	return []Detector{s.MalConv, s.NonNeg, s.LGBM, s.MalGCG}
}

// KnownFor returns MPass's known-model ensemble when attacking the named
// target: the remaining differentiable offline models (LightGBM can never
// be a known model — paper footnote 6; for external targets all three are
// known).
func (s *Suite) KnownFor(target string) []GradientModel {
	var out []GradientModel
	for _, m := range []GradientModel{s.MalConv, s.NonNeg, s.MalGCG} {
		if m.Name() != target {
			out = append(out, m)
		}
	}
	return out
}
