package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpass/internal/nn"
)

// TestEnvelopeRoundTripBitIdentity is the per-engine persistence gate: for
// every persistable engine kind (conv, gbdt, rnn), save → load must yield
// the same name, the same content-addressed version, the same threshold, and
// bit-identical scores through both the single-sample and batched paths.
// The version assertion is what the reload drill keys on — reloading the
// same bytes must advertise the same generation.
func TestEnvelopeRoundTripBitIdentity(t *testing.T) {
	_, _, raws := fixtures(t)
	for _, d := range fullSet(t).Drivers() {
		var buf bytes.Buffer
		if err := SaveEngine(&buf, d, 3); err != nil {
			t.Fatalf("SaveEngine(%s): %v", d.Name(), err)
		}
		loaded, idx, err := LoadEngine(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("LoadEngine(%s): %v", d.Name(), err)
		}
		if idx != 3 {
			t.Fatalf("%s: index %d survived as %d", d.Name(), 3, idx)
		}
		if loaded.Name() != d.Name() {
			t.Fatalf("loaded name %q, want %q", loaded.Name(), d.Name())
		}
		if loaded.Version() != d.Version() {
			t.Fatalf("%s: loaded version %s != saved %s (identical bytes must mean identical version)",
				d.Name(), loaded.Version(), d.Version())
		}
		if loaded.Threshold() != d.Threshold() {
			t.Fatalf("%s: threshold %v survived as %v", d.Name(), d.Threshold(), loaded.Threshold())
		}
		if err := loaded.Health(); err != nil {
			t.Fatalf("%s: unhealthy after load: %v", d.Name(), err)
		}
		batch := loaded.ScoreBatch(raws)
		for j, raw := range raws {
			want := d.Score(raw)
			if got := loaded.Score(raw); got != want {
				t.Fatalf("%s sample %d: loaded score %v != original %v", d.Name(), j, got, want)
			}
			if batch[j] != want {
				t.Fatalf("%s sample %d: loaded batch score %v != original %v", d.Name(), j, batch[j], want)
			}
			if loaded.Label(raw) != d.Label(raw) {
				t.Fatalf("%s sample %d: loaded label flipped", d.Name(), j)
			}
		}
	}
}

// TestSaveEngineRejectsRuntimeOnly: AV drivers have no envelope form —
// persisting one must fail loudly instead of writing a file that cannot
// round-trip.
func TestSaveEngineRejectsRuntimeOnly(t *testing.T) {
	avDrv := avFixture(t)
	if err := SaveEngine(&bytes.Buffer{}, avDrv, 0); err == nil {
		t.Fatal("SaveEngine accepted a runtime-only AV driver")
	}
	// A set containing one poisons the whole directory save.
	suite, _, _ := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewSet(conv, avDrv)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveDir(t.TempDir(), mixed); err == nil {
		t.Fatal("SaveDir accepted a set with a runtime-only member")
	}
}

// TestLoadEngineRejectsBadEnvelopes: garbage, a mangled header, a
// corrupted magic byte, or an envelope cut off at any point must fail
// loudly, never yield a partially initialized driver.
func TestLoadEngineRejectsBadEnvelopes(t *testing.T) {
	suite, _, _ := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, conv, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	mangle := func(f func(*envelope)) []byte {
		var env envelope
		if err := decodePayload(full, &env); err != nil {
			t.Fatal(err)
		}
		f(&env)
		raw, err := encodePayload(&env)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	i := bytes.Index(full, []byte(engineMagic))
	if i < 0 {
		t.Fatal("magic string not found in the encoded envelope")
	}
	corrupt := append([]byte(nil), full...)
	corrupt[i] ^= 0xFF

	cases := []struct {
		name string
		raw  []byte
	}{
		{"garbage", []byte("not a gob stream")},
		{"a wrong magic", mangle(func(e *envelope) { e.Magic = "pickle" })},
		{"a corrupted magic byte", corrupt},
		{"a future format version", mangle(func(e *envelope) { e.Version = engineVersion + 1 })},
		{"an unknown kind", mangle(func(e *envelope) { e.Kind = "onnx" })},
		{"a name that disagrees with its payload", mangle(func(e *envelope) { e.Name = "Imposter" })},
	}
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
		n := int(frac * float64(len(full)))
		cases = append(cases, struct {
			name string
			raw  []byte
		}{fmt.Sprintf("an envelope truncated to %d/%d bytes", n, len(full)), full[:n]})
	}
	for _, c := range cases {
		if _, _, err := LoadEngine(bytes.NewReader(c.raw)); err == nil {
			t.Errorf("LoadEngine accepted %s", c.name)
		}
	}
}

// TestEnvelopeQuantRoundTrip: quantized tables are runtime-only. A conv
// engine saved while serving int32 must load on the float64 reference path
// bit-identically to its float source, and — once int32 is re-applied —
// rebuild tables from the loaded weights that score exactly like the
// source's.
func TestEnvelopeQuantRoundTrip(t *testing.T) {
	suite, _, raws := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	defer conv.SetQuantMode(nn.QuantOff)

	conv.SetQuantMode(nn.QuantInt32)
	var buf bytes.Buffer
	if err := SaveEngine(&buf, conv, 0); err != nil {
		t.Fatalf("SaveEngine with int32 serving: %v", err)
	}
	quantScores := conv.ScoreBatch(raws)
	conv.SetQuantMode(nn.QuantOff)
	floatScores := conv.ScoreBatch(raws)

	loaded, _, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	for j, raw := range raws {
		if got := loaded.Score(raw); got != floatScores[j] {
			t.Fatalf("sample %d: loaded float score %v != source %v", j, got, floatScores[j])
		}
	}
	q, ok := QuantizerOf(loaded)
	if !ok {
		t.Fatal("loaded conv engine lost the quantizer capability")
	}
	q.SetQuantMode(nn.QuantInt32)
	for j, raw := range raws {
		if got := loaded.Score(raw); got != quantScores[j] {
			t.Fatalf("sample %d: loaded int32 score %v != source int32 %v", j, got, quantScores[j])
		}
	}
}

// TestSaveDirLoadDirRoundTrip: a directory of envelopes must rebuild the
// exact set — same order, same names, same per-engine versions, and
// therefore the same set version.
func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	set := fullSet(t)
	dir := t.TempDir()
	if err := SaveDir(dir, set); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), envelopeSuffix) {
			files++
		}
	}
	if files != set.Len() {
		t.Fatalf("%d envelope files for %d engines", files, set.Len())
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if loaded.Version() != set.Version() {
		t.Fatalf("round-tripped set version %s != %s", loaded.Version(), set.Version())
	}
	for i, d := range loaded.Drivers() {
		orig := set.Drivers()[i]
		if d.Name() != orig.Name() || d.Version() != orig.Version() {
			t.Fatalf("member %d: %s/%s, want %s/%s", i, d.Name(), d.Version(), orig.Name(), orig.Version())
		}
	}
	if err := SaveDir(t.TempDir(), nil); err == nil {
		t.Fatal("SaveDir accepted a nil set")
	}
}

// TestLoadDirOrdersByRecordedIndex: load order follows each envelope's
// recorded Index, not filesystem listing order — a renamed file cannot
// reorder the set.
func TestLoadDirOrdersByRecordedIndex(t *testing.T) {
	suite, _, _ := fixtures(t)
	set, err := FromSuite(suite)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Write with filenames that sort in reverse of the recorded indices.
	for i, d := range set.Drivers() {
		name := filepath.Join(dir, envelopeFileName(set.Len()-1-i, d.Name()))
		if err := SaveEngineFile(name, d, i); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range set.Names() {
		if loaded.Names()[i] != name {
			t.Fatalf("load order %v, want %v (filenames must not override indices)",
				loaded.Names(), set.Names())
		}
	}
	// An empty directory is an explicit error, not an empty set.
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir accepted a directory with no envelopes")
	}
}

// TestLoadDirRejectsNonDirectories: a model path is a directory of
// envelopes and nothing else. A regular file — junk or a lone envelope — is
// refused with an error naming the directory format, and a missing path
// reports os.ErrNotExist, which mpassd reads as "train and save here".
func TestLoadDirRejectsNonDirectories(t *testing.T) {
	suite, _, _ := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	lone := filepath.Join(t.TempDir(), "malconv.engine.gob")
	if err := SaveEngineFile(lone, conv, 0); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(t.TempDir(), "models.gob")
	if err := os.WriteFile(junk, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{lone, junk} {
		_, err := LoadDir(path)
		if err == nil {
			t.Fatalf("LoadDir accepted the regular file %s", path)
		}
		if !strings.Contains(err.Error(), "directory") || !strings.Contains(err.Error(), envelopeSuffix) {
			t.Fatalf("LoadDir(%s) error %q does not name the directory format", path, err)
		}
	}
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadDir(missing) = %v, want os.ErrNotExist", err)
	}
}

// TestSaveEngineFileAtomic: the temp-and-rename write never leaves a torn
// file behind — after a save the directory holds exactly the target file.
func TestSaveEngineFileAtomic(t *testing.T) {
	suite, _, _ := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "malconv.engine.gob")
	if err := SaveEngineFile(path, conv, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "malconv.engine.gob" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory after save: %v, want only the target file", names)
	}
	// A runtime-only driver fails before the rename: no target file appears.
	bad := filepath.Join(dir, "av.engine.gob")
	if err := SaveEngineFile(bad, avFixture(t), 1); err == nil {
		t.Fatal("SaveEngineFile accepted a runtime-only driver")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("failed save left a file behind")
	}
}
