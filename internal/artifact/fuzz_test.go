package artifact_test

import (
	"bytes"
	"testing"

	"locec/internal/artifact"
	"locec/internal/testutil"
)

// FuzzArtifact throws arbitrary bytes at the artifact decoder — header,
// every section, and the embedded-dataset extension. Any outcome is
// acceptable except a panic. The seed corpus is the shared testutil
// corruption diet over a real artifact with a dataset section, so plain
// `go test` already covers bit rot, torn tails and duplicated bytes, and
// FuzzReplay over in internal/wal feeds its decoder the same diet.
func FuzzArtifact(f *testing.F) {
	testutil.SeedCorpus(f, fuzzSeed(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeArtifact(data)
	})
}

// fuzzSeed is the bytes of a trained artifact with a dataset section and
// a WAL stamp.
func fuzzSeed(f *testing.F) []byte {
	ds, res, _ := saved(f, "xgb")
	ex, err := res.Export()
	if err != nil {
		f.Fatal(err)
	}
	art, err := artifact.New(ds.G, ex, 7)
	if err != nil {
		f.Fatal(err)
	}
	if err := art.EmbedDataset(ds); err != nil {
		f.Fatal(err)
	}
	art.StampWAL(3, 11)
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// decodeArtifact walks every decode surface; errors are fine, panics are
// the only failure.
func decodeArtifact(b []byte) {
	art, err := artifact.Load(bytes.NewReader(b))
	if err != nil {
		return
	}
	if _, err := art.Graph(); err != nil {
		return
	}
	_, _ = art.Export()
	_, _ = art.Dataset()
}
