// Package testutil holds shared test fixtures. It is imported only from
// _test files, so nothing here reaches a production binary.
package testutil

import "testing"

// Corruptions returns a deterministic corpus of corruptions of an encoded
// blob — the standard never-panic diet for a binary decoder:
//
//   - single-byte XOR flips at 512 offsets spread evenly over the blob,
//     whatever its length (every byte would be slow on real artifacts), or
//     at every byte of a shorter one,
//   - truncations at the same offsets (torn tails),
//   - the blob with its own tail duplicated (repeated records), and
//   - the blob doubled (a whole file appended to itself).
//
// Both the artifact store's FuzzArtifact and the WAL's FuzzReplay seed
// from this, so the two decoders stay honest against the same failure
// modes: bit rot, torn writes and duplicated bytes. The variant count
// depends on the length only below 512 bytes, so a seed's name (seed#N)
// names the same kind of corruption when a blob grows or shrinks.
func Corruptions(data []byte) [][]byte {
	var out [][]byte
	offsets := min(len(data), 512)
	for i := range offsets {
		bad := append([]byte(nil), data...)
		bad[i*len(data)/offsets] ^= 0x55
		out = append(out, bad)
	}
	for i := range offsets {
		out = append(out, append([]byte(nil), data[:i*len(data)/offsets]...))
	}
	if n := len(data); n > 0 {
		tail := data[n-min(64, n):]
		out = append(out, append(append([]byte(nil), data...), tail...))
		out = append(out, append(append([]byte(nil), data...), data...))
	}
	return out
}

// SeedCorpus adds data and every Corruptions variant to a fuzz corpus, so
// plain `go test` (no -fuzz flag) already drives the target through the
// whole corruption diet.
func SeedCorpus(f *testing.F, data []byte) {
	f.Helper()
	f.Add(append([]byte(nil), data...))
	for _, bad := range Corruptions(data) {
		f.Add(bad)
	}
}
