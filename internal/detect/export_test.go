package detect

import (
	"testing"

	"mpass/internal/corpus"
)

// Hooks for the external detect_test package. Suite persistence goes
// through internal/engine, which imports this package, so the suite-level
// save/load tests live outside it and reach the shared trained fixtures here.

// TrainedSuite returns the package's shared trained offline suite.
func TrainedSuite(t *testing.T) *Suite {
	t.Helper()
	mc, nng, lg, gcg := models(t)
	return &Suite{MalConv: mc, NonNeg: nng, LGBM: lg, MalGCG: gcg}
}

// SharedDataset returns the package's shared synthetic dataset.
func SharedDataset(t *testing.T) *corpus.Dataset {
	t.Helper()
	return dataset(t)
}

// RawsOf exposes rawsOf.
var RawsOf = rawsOf
