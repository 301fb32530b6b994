package detect_test

import (
	"bytes"
	"testing"

	"mpass/internal/detect"
	"mpass/internal/engine"
)

// suiteEnvelopes saves every member of the suite as its own engine envelope,
// in paper order — the only on-disk form a suite has.
func suiteEnvelopes(t *testing.T, s *detect.Suite) [][]byte {
	t.Helper()
	set, err := engine.FromSuite(s)
	if err != nil {
		t.Fatalf("FromSuite: %v", err)
	}
	var out [][]byte
	for i, d := range set.Drivers() {
		var buf bytes.Buffer
		if err := engine.SaveEngine(&buf, d, i); err != nil {
			t.Fatalf("SaveEngine(%s): %v", d.Name(), err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestSuiteGobRoundTripParity is the suite persistence gate: a suite saved
// to a model directory and loaded back must score and label a corpus slice
// bit-identically to the in-memory suite — through both the single-sample
// and the batched (lookup-table) paths, which exercises the fastpath
// rebuild after decode — and keep its thresholds and gradient geometry.
func TestSuiteGobRoundTripParity(t *testing.T) {
	s := detect.TrainedSuite(t)
	set, err := engine.FromSuite(s)
	if err != nil {
		t.Fatalf("FromSuite: %v", err)
	}
	dir := t.TempDir()
	if err := engine.SaveDir(dir, set); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	loaded, err := engine.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}

	raws := detect.RawsOf(detect.SharedDataset(t).Test)
	if len(raws) > 24 {
		raws = raws[:24]
	}
	orig, back := s.OfflineTargets(), loaded.Drivers()
	thresholds := []float64{s.MalConv.Threshold, s.NonNeg.Threshold, s.LGBM.Threshold, s.MalGCG.Threshold}
	if len(back) != len(orig) {
		t.Fatalf("loaded %d engines, want %d", len(back), len(orig))
	}
	for i, d := range orig {
		ld := back[i]
		if ld.Name() != d.Name() {
			t.Fatalf("model %d: loaded name %q != %q", i, ld.Name(), d.Name())
		}
		if ld.Threshold() != thresholds[i] {
			t.Fatalf("%s: loaded threshold %v != saved %v", d.Name(), ld.Threshold(), thresholds[i])
		}
		wantScores := detect.ScoreAll(d, raws, 0)
		gotScores := detect.ScoreAll(ld, raws, 0)
		wantLabels := detect.LabelAll(d, raws, 0)
		gotLabels := detect.LabelAll(ld, raws, 0)
		for j := range raws {
			if gotScores[j] != wantScores[j] {
				t.Fatalf("%s sample %d: loaded score %v != original %v", d.Name(), j, gotScores[j], wantScores[j])
			}
			if gotLabels[j] != wantLabels[j] {
				t.Fatalf("%s sample %d: loaded label %v != original %v", d.Name(), j, gotLabels[j], wantLabels[j])
			}
			// Single-sample path too: the loaded fastpath tables must agree
			// with the loaded direct weights.
			if got := ld.Score(raws[j]); got != wantScores[j] {
				t.Fatalf("%s sample %d: loaded single-sample score %v != original %v", d.Name(), j, got, wantScores[j])
			}
		}
	}

	g, ok := engine.GradientOf(back[0])
	if !ok {
		t.Fatal("loaded MalConv lost its gradient capability")
	}
	if g.SeqLen() != s.MalConv.SeqLen() || g.EmbedDim() != s.MalConv.EmbedDim() {
		t.Fatal("loaded gradient-model geometry differs")
	}
}

// TestSuiteFileRoundTripAndKnownFor: the known-model ensemble of a loaded
// model directory is the one Suite.KnownFor picks in memory — the other
// conv nets for an offline target, all three for an external one, never
// LightGBM.
func TestSuiteFileRoundTripAndKnownFor(t *testing.T) {
	s := detect.TrainedSuite(t)
	set, err := engine.FromSuite(s)
	if err != nil {
		t.Fatalf("FromSuite: %v", err)
	}
	dir := t.TempDir()
	if err := engine.SaveDir(dir, set); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	loaded, err := engine.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, target := range []string{"MalConv", "NonNeg", "MalGCG", "LightGBM", "AV1"} {
		known := engine.GradientModels(loaded, target)
		want := s.KnownFor(target)
		if len(known) != len(want) {
			t.Fatalf("KnownFor(%s) after load returned %d models, want %d", target, len(known), len(want))
		}
		for i, m := range known {
			if m.Name() == target {
				t.Fatalf("KnownFor(%s) included the target", target)
			}
			if m.Name() != want[i].Name() {
				t.Fatalf("KnownFor(%s)[%d] = %s, want %s", target, i, m.Name(), want[i].Name())
			}
		}
	}
	if got := engine.GradientModels(loaded, "MalConv"); len(got) != 2 {
		t.Fatalf("KnownFor(MalConv) returned %d models, want 2", len(got))
	}
	if got := engine.GradientModels(loaded, "AV1"); len(got) != 3 {
		t.Fatalf("KnownFor(external) returned %d models, want 3", len(got))
	}
}

func TestLoadSuiteRejectsGarbage(t *testing.T) {
	if _, _, err := engine.LoadEngine(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("LoadEngine accepted garbage")
	}
	if _, err := engine.FromSuite(&detect.Suite{}); err == nil {
		t.Fatal("FromSuite accepted an empty suite")
	}
	if err := engine.SaveDir(t.TempDir(), nil); err == nil {
		t.Fatal("SaveDir accepted a nil set")
	}
}

// TestLoadSuiteTruncatedStream: an envelope of any suite member cut off at
// any point must fail loudly, never yield a partially initialized engine.
func TestLoadSuiteTruncatedStream(t *testing.T) {
	for i, full := range suiteEnvelopes(t, detect.TrainedSuite(t)) {
		for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
			n := int(frac * float64(len(full)))
			if _, _, err := engine.LoadEngine(bytes.NewReader(full[:n])); err == nil {
				t.Errorf("engine %d: LoadEngine accepted an envelope truncated to %d/%d bytes", i, n, len(full))
			}
		}
	}
}

// TestLoadSuiteCorruptMagic: flipping a byte of any suite member's envelope
// magic must be rejected as "not an engine file".
func TestLoadSuiteCorruptMagic(t *testing.T) {
	for i, full := range suiteEnvelopes(t, detect.TrainedSuite(t)) {
		j := bytes.Index(full, []byte("mpass-engine"))
		if j < 0 {
			t.Fatalf("engine %d: magic string not found in the encoded envelope", i)
		}
		corrupt := append([]byte(nil), full...)
		corrupt[j] ^= 0xFF
		if _, _, err := engine.LoadEngine(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("engine %d: LoadEngine accepted an envelope with a corrupted magic", i)
		}
	}
}
