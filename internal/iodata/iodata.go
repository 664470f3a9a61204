// Package iodata serializes datasets to and from the repository's JSON
// interchange format, so networks generated by cmd/locec-datagen (or
// prepared externally in the same schema) can be re-loaded and classified
// by cmd/locec or the library.
//
// This format carries the problem (users, friendships, interactions,
// ground truth); the trained solution is persisted separately by
// internal/artifact. Both schemas are specified in docs/FORMATS.md.
package iodata

import (
	"encoding/json"
	"fmt"
	"io"

	"locec/internal/graph"
	"locec/internal/social"
)

// User is one user profile record.
type User struct {
	ID       uint32    `json:"id"`
	Features []float64 `json:"features"`
}

// EdgeRecord is one labeled friendship.
type EdgeRecord struct {
	U            uint32    `json:"u"`
	V            uint32    `json:"v"`
	Label        string    `json:"label"`
	Second       string    `json:"second,omitempty"`
	Interactions []float64 `json:"interactions,omitempty"`
	CommonGroups int       `json:"common_groups,omitempty"`
	// Revealed marks edges whose label is visible to learners. Files
	// produced by locec-datagen carry full ground truth with Revealed
	// unset; the loader can reveal a fraction afterwards.
	Revealed bool `json:"revealed,omitempty"`
}

// Group is one chat group.
type Group struct {
	Name    string   `json:"name,omitempty"`
	Members []uint32 `json:"members"`
}

// Network is the top-level JSON document.
type Network struct {
	Users  []User       `json:"users"`
	Edges  []EdgeRecord `json:"edges"`
	Groups []Group      `json:"groups"`
}

// parseLabel reverses social.Label.String().
func parseLabel(s string) (social.Label, error) {
	switch s {
	case "Colleague":
		return social.Colleague, nil
	case "Family Members":
		return social.Family, nil
	case "Schoolmates":
		return social.Schoolmate, nil
	case "Others":
		return social.Other, nil
	default:
		return social.Unlabeled, fmt.Errorf("iodata: unknown label %q", s)
	}
}

// Decode reads a Network document from r.
func Decode(r io.Reader) (*Network, error) {
	var doc Network
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("iodata: decode: %w", err)
	}
	return &doc, nil
}

// Encode writes the document to w with indentation.
func (n *Network) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(n)
}

// ToDataset converts the document into the learner-facing representation,
// validating shapes as it goes.
func (n *Network) ToDataset() (*social.Dataset, error) {
	nu := len(n.Users)
	if nu == 0 {
		return nil, fmt.Errorf("iodata: no users")
	}
	width := len(n.Users[0].Features)
	feats := make([][]float64, nu)
	for _, u := range n.Users {
		if int(u.ID) >= nu {
			return nil, fmt.Errorf("iodata: user id %d out of range (%d users)", u.ID, nu)
		}
		if len(u.Features) != width {
			return nil, fmt.Errorf("iodata: user %d has %d features, want %d", u.ID, len(u.Features), width)
		}
		feats[u.ID] = u.Features
	}
	for i, f := range feats {
		if f == nil {
			return nil, fmt.Errorf("iodata: missing user record for id %d", i)
		}
	}
	b := graph.NewBuilder(nu)
	labels := make(map[uint64]social.Label, len(n.Edges))
	inter := make(map[uint64][]float64)
	revealed := make(map[uint64]bool)
	for _, e := range n.Edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, fmt.Errorf("iodata: %w", err)
		}
		l, err := parseLabel(e.Label)
		if err != nil {
			return nil, err
		}
		k := (graph.Edge{U: e.U, V: e.V}).Key()
		labels[k] = l
		if len(e.Interactions) > 0 {
			if len(e.Interactions) != int(social.NumInteractionDims) {
				return nil, fmt.Errorf("iodata: edge {%d,%d} has %d interaction dims, want %d",
					e.U, e.V, len(e.Interactions), social.NumInteractionDims)
			}
			inter[k] = e.Interactions
		}
		if e.Revealed {
			revealed[k] = true
		}
	}
	ds := &social.Dataset{
		G:            b.Build(),
		UserFeatures: feats,
		Interactions: inter,
		TrueLabels:   labels,
		Revealed:     revealed,
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// FromDataset builds the document from a dataset (plus optional
// generator-side metadata maps, which may be nil).
func FromDataset(ds *social.Dataset, second map[uint64]string, commonGroups map[uint64]int) *Network {
	doc := &Network{}
	for i, f := range ds.UserFeatures {
		doc.Users = append(doc.Users, User{ID: uint32(i), Features: f})
	}
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		k := (graph.Edge{U: u, V: v}).Key()
		rec := EdgeRecord{
			U: u, V: v,
			Label:    ds.TrueLabel(k).String(),
			Revealed: ds.IsRevealed(k),
		}
		if second != nil {
			rec.Second = second[k]
		}
		if commonGroups != nil {
			rec.CommonGroups = commonGroups[k]
		}
		rec.Interactions, _ = ds.InteractionRow(k)
		doc.Edges = append(doc.Edges, rec)
	})
	return doc
}
