package artifact_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"locec/internal/artifact"
	"locec/internal/testutil"
)

// FuzzArtifact throws arbitrary bytes at the artifact decoder — header,
// every section, and the embedded-dataset extension. Any outcome is
// acceptable except a panic. The seed corpus is the shared testutil
// corruption diet over a real artifact with a dataset section, so plain
// `go test` already covers bit rot, torn tails and duplicated bytes, and
// FuzzReplay over in internal/wal feeds its decoder the same diet. Each
// input is resealed first, so a mutated payload reaches its section
// decoder instead of stopping at the checksum.
func FuzzArtifact(f *testing.F) {
	testutil.SeedCorpus(f, fuzzSeed(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeArtifact(reseal(data))
	})
}

// TestResealPassesChecksum: a payload byte flipped and resealed gets past
// Load's checksum check, which is what lets the fuzzers' mutants reach the
// section decoders.
func TestResealPassesChecksum(t *testing.T) {
	_, _, data := saved(t, "xgb")
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0xFF
	if _, err := artifact.Load(bytes.NewReader(reseal(bad))); errors.Is(err, artifact.ErrChecksum) {
		t.Fatalf("resealed artifact: %v", err)
	}
}

// reseal returns data with the CRC-32 of every section its table places
// inside data rewritten to match the payload, so Load's checksum check
// passes whatever the bytes are. Input shorter than the fixed header, and
// table entries past the end, are left as they are.
func reseal(data []byte) []byte {
	const fixed, entry = len(artifact.Magic) + 8, 32 // magic, version, reserved, count; one table entry
	if len(data) < fixed {
		return data
	}
	out := bytes.Clone(data)
	n := int(binary.LittleEndian.Uint32(out[len(artifact.Magic)+4:]))
	for i := 0; i < n && fixed+(i+1)*entry <= len(out); i++ {
		e := out[fixed+i*entry:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off <= uint64(len(out)) && length <= uint64(len(out))-off {
			binary.LittleEndian.PutUint32(e[24:], crc32.ChecksumIEEE(out[off:off+length]))
		}
	}
	return out
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
