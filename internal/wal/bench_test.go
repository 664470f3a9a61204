package wal

import "testing"

// BenchmarkAppend times one durable append on the real filesystem under
// each fsync policy: always pays the fsync per record, batch once per
// eight-record burst (the shape coalesced epochs produce), none never.
func BenchmarkAppend(b *testing.B) {
	batch := batchFixture(1)
	for _, mode := range []SyncMode{SyncAlways, SyncBatch, SyncNone} {
		b.Run("sync="+mode.String(), func(b *testing.B) {
			l, _, err := Open(OSFS{}, b.TempDir(), mode)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(batch); err != nil {
					b.Fatal(err)
				}
				if i%8 == 7 {
					if err := l.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
