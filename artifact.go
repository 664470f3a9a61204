package locec

import (
	"fmt"
	"io"

	"locec/internal/artifact"
	"locec/internal/social"
)

// WriteArtifact serializes a completed run as a versioned, checksummed
// binary artifact (the `.locec` snapshot format, docs/FORMATS.md): graph
// topology, every ego network's classified communities, the trained
// Phase II and Phase III models, and all edge predictions. A process that
// later calls ReadArtifact — or a `locec-serve -artifact` instance — gets
// identical predictions back without retraining anything.
//
// ds must be the dataset the run classified; only its graph is stored.
func (r *Result) WriteArtifact(w io.Writer, ds *social.Dataset) error {
	if ds == nil || ds.G == nil {
		return fmt.Errorf("locec: write artifact: nil dataset")
	}
	ex, err := r.inner.Export()
	if err != nil {
		return err
	}
	art, err := artifact.New(ds.G, ex, 0)
	if err != nil {
		return err
	}
	return art.Save(w)
}

// ReadArtifact restores a Result from an artifact written by
// WriteArtifact (or by `locec train -out`). The restored Result answers
// Label, Probabilities, MultiLabel and NodeCommunities exactly as the
// original did — cold start is deserialization, not training. Corrupted
// or truncated input yields a descriptive error, never a panic.
func ReadArtifact(rd io.Reader) (*Result, error) {
	art, err := artifact.Load(rd)
	if err != nil {
		return nil, err
	}
	_, res, _, err := art.Restore()
	if err != nil {
		return nil, err
	}
	return &Result{inner: res}, nil
}
