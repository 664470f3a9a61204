package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"locec/internal/gbdt"
	"locec/internal/nn"
)

// ModelPersister is implemented by community classifiers whose trained
// model can round-trip through a byte stream. Both shipped classifiers
// implement it; a custom classifier that does not simply travels without
// weights in an artifact (Export records an empty model blob, and
// RunFromArtifact restores everything except the ability to classify new
// communities).
type ModelPersister interface {
	// SaveModel writes the trained model, including whatever architecture
	// description is needed to rebuild it, to w. It fails if the
	// classifier has not been fitted.
	SaveModel(w io.Writer) error
	// LoadModel restores a model previously written by SaveModel on the
	// same classifier type, leaving the receiver ready to Classify.
	LoadModel(r io.Reader) error
}

// cnnModelDoc is the serialized form of a trained CNNClassifier: the
// effective architecture plus the raw parameter stream of nn.SaveParams.
type cnnModelDoc struct {
	K        int             `json:"k"`
	Features int             `json:"features"`
	Classes  int             `json:"classes"`
	Filters  int             `json:"filters"`
	Hidden   int             `json:"hidden"`
	Params   json.RawMessage `json:"params"`
}

// SaveModel implements ModelPersister: the CommCNN architecture
// (post-default K/Filters/Hidden and the feature width recorded at Fit
// time) plus every parameter tensor.
func (c *CNNClassifier) SaveModel(w io.Writer) error {
	if c.net == nil {
		return fmt.Errorf("core: cnn classifier has no trained model")
	}
	var params bytes.Buffer
	if err := c.net.SaveParams(&params); err != nil {
		return fmt.Errorf("core: save cnn params: %w", err)
	}
	doc := cnnModelDoc{
		K: c.K, Features: c.features, Classes: c.net.Classes,
		Filters: c.Filters, Hidden: c.Hidden,
		Params: json.RawMessage(bytes.TrimSpace(params.Bytes())),
	}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("core: save cnn model: %w", err)
	}
	return nil
}

// LoadModel implements ModelPersister: it rebuilds the CommCNN from the
// saved architecture and restores the weights. The receiver's K/Filters/
// Hidden are overwritten so feature-matrix construction matches the model.
func (c *CNNClassifier) LoadModel(r io.Reader) error {
	var doc cnnModelDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("core: load cnn model: %w", err)
	}
	net, err := nn.NewCommCNN(nn.CommCNNConfig{
		K: doc.K, Features: doc.Features, Classes: doc.Classes,
		Filters: doc.Filters, Hidden: doc.Hidden, Seed: c.Seed,
	})
	if err != nil {
		return fmt.Errorf("core: load cnn model: %w", err)
	}
	if err := net.LoadParams(bytes.NewReader(doc.Params)); err != nil {
		return fmt.Errorf("core: load cnn model: %w", err)
	}
	c.K, c.Filters, c.Hidden = doc.K, doc.Filters, doc.Hidden
	c.features = doc.Features
	c.net = net
	return nil
}

// SaveModel implements ModelPersister via gbdt's binary forest layout.
func (x *XGBClassifier) SaveModel(w io.Writer) error {
	if x.model == nil {
		return fmt.Errorf("core: xgb classifier has no trained model")
	}
	return x.model.Save(w)
}

// LoadModel implements ModelPersister; it also reads the JSON models of
// artifacts older than format version 4.
func (x *XGBClassifier) LoadModel(r io.Reader) error {
	m, err := gbdt.Load(r)
	if err != nil {
		return err
	}
	x.model = m
	return nil
}

// classifierForName constructs an untrained classifier instance for a
// Result.ClassifierName, the dispatch RunFromArtifact uses to restore a
// persisted Phase II model.
func classifierForName(name string) (CommunityClassifier, error) {
	switch name {
	case (&CNNClassifier{}).Name():
		return &CNNClassifier{}, nil
	case (&XGBClassifier{}).Name():
		return &XGBClassifier{}, nil
	default:
		return nil, fmt.Errorf("core: unknown classifier %q in artifact", name)
	}
}

// statically assert both shipped classifiers persist.
var (
	_ ModelPersister = (*CNNClassifier)(nil)
	_ ModelPersister = (*XGBClassifier)(nil)
)
