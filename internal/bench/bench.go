// Package bench holds the dataset and graph fixtures the per-package
// Benchmark* functions share, so `go test -bench` in two packages
// measures the same inputs. Fixtures are cached per process, read-only,
// and keyed by (scale, density, seed). Nothing here times anything:
// interactive measurement is `go test -bench`, and every number a claim
// rests on comes from benchmark/ (see docs/BENCHMARKING.md).
package bench
