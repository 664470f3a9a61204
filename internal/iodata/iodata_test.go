package iodata

import (
	"bytes"
	"strings"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/wechat"
)

func TestRoundTrip(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.3, 1)
	doc := FromDataset(net.Dataset, net.EdgeSecond, net.CommonGroups)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := decoded.ToDataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.G.NumNodes() != net.Dataset.G.NumNodes() || ds.G.NumEdges() != net.Dataset.G.NumEdges() {
		t.Fatalf("graph mismatch: %d/%d vs %d/%d",
			ds.G.NumNodes(), ds.G.NumEdges(), net.Dataset.G.NumNodes(), net.Dataset.G.NumEdges())
	}
	for k, l := range net.Dataset.TrueLabels {
		if ds.TrueLabel(k) != l {
			t.Fatalf("label mismatch at %v", graph.EdgeFromKey(k))
		}
	}
	if len(ds.Revealed) != len(net.Dataset.Revealed) {
		t.Fatalf("revealed mismatch: %d vs %d", len(ds.Revealed), len(net.Dataset.Revealed))
	}
	for k, iv := range net.Dataset.Interactions {
		got, ok := ds.InteractionRow(k)
		if !ok {
			t.Fatalf("missing interactions at %v", graph.EdgeFromKey(k))
		}
		for d := range iv {
			if got[d] != iv[d] {
				t.Fatalf("interaction mismatch at %v dim %d", graph.EdgeFromKey(k), d)
			}
		}
	}
}

func TestDecodeRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"bad json", `{"users": [`},
		{"unknown label", `{"users":[{"id":0,"features":[1]},{"id":1,"features":[1]}],
			"edges":[{"u":0,"v":1,"label":"Frenemy"}]}`},
		{"self loop", `{"users":[{"id":0,"features":[1]}],
			"edges":[{"u":0,"v":0,"label":"Colleague"}]}`},
		{"ragged features", `{"users":[{"id":0,"features":[1]},{"id":1,"features":[1,2]}],
			"edges":[{"u":0,"v":1,"label":"Colleague"}]}`},
		{"wrong interaction width", `{"users":[{"id":0,"features":[1]},{"id":1,"features":[1]}],
			"edges":[{"u":0,"v":1,"label":"Colleague","interactions":[1,2]}]}`},
		{"negative interaction count", `{"users":[{"id":0,"features":[1]},{"id":1,"features":[1]}],
			"edges":[{"u":0,"v":1,"label":"Colleague","interactions":[1,2,3,4,5,-6,7,8]}]}`},
		{"missing user record", `{"users":[{"id":1,"features":[1]},{"id":1,"features":[1]}],
			"edges":[]}`},
		{"empty", `{}`},
	}
	for _, c := range cases {
		doc, err := Decode(strings.NewReader(c.doc))
		if err != nil {
			continue // decode-level rejection is fine
		}
		if _, err := doc.ToDataset(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseLabelCoversAll(t *testing.T) {
	for _, l := range []social.Label{social.Colleague, social.Family, social.Schoolmate, social.Other} {
		got, err := parseLabel(l.String())
		if err != nil || got != l {
			t.Fatalf("parseLabel(%q) = %v, %v", l.String(), got, err)
		}
	}
}

func TestRevealedFlagSurvivesRoundTrip(t *testing.T) {
	ds := &social.Dataset{}
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	ds.G = b.Build()
	ds.UserFeatures = [][]float64{{1}, {1}, {1}}
	k01 := (graph.Edge{U: 0, V: 1}).Key()
	k12 := (graph.Edge{U: 1, V: 2}).Key()
	ds.TrueLabels = map[uint64]social.Label{k01: social.Family, k12: social.Colleague}
	ds.Interactions = map[uint64][]float64{}
	ds.Revealed = map[uint64]bool{k01: true}
	doc := FromDataset(ds, nil, nil)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := dec.ToDataset()
	if err != nil {
		t.Fatal(err)
	}
	if !ds2.IsRevealed(k01) || ds2.IsRevealed(k12) {
		t.Fatalf("revealed flags wrong: %v", ds2.Revealed)
	}
}
