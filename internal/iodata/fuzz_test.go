package iodata

import (
	"bytes"
	"testing"
)

// FuzzToDataset feeds hostile documents through Decode and ToDataset:
// each must be refused with an error, or become a dataset that passes
// Validate; neither may panic.
func FuzzToDataset(f *testing.F) {
	// A valid document: three users, two edges (one revealed, one with
	// interactions) and a group.
	f.Add([]byte(`{"users":[{"id":0,"features":[1,0.5]},{"id":2,"features":[0,2]},{"id":1,"features":[3,1]}],
		"edges":[{"u":0,"v":1,"label":"Colleague","second":"current","revealed":true,"common_groups":1},
		{"u":2,"v":1,"label":"Others","interactions":[1,0,2,0,0,0,0,5]}],
		"groups":[{"name":"work","members":[0,1]}]}`))
	for _, doc := range []string{
		`{"users":[{"id":0,"features":[1]},{"id":1,"features":[1]}],"edges":[{"u":0,"v":1,"label":"Family Members","revealed":true}]}`,
		`{"users":[{"id":0,"features":[1]},{"id":1,"features":[1]}],"edges":[{"u":0,"v":1,"label":"Others"},{"u":1,"v":0,"label":"Colleague"}]}`,
		`{"users":[{"id":0,"features":[1]},{"id":1,"features":[1]}],"edges":[{"u":0,"v":7,"label":"Colleague"}]}`,
		`{"users":[{"id":4294967295,"features":[]}],"edges":[]}`,
		`{"users":[{"id":0,"features":[1]},{"id":1,"features":[1]}],"edges":[{"u":0,"v":1,"label":"Schoolmates","interactions":[0,0,0,0,0,0,0,1e308]}]}`,
		`{"users":[{"id":0,"features":[1]},{"id":1,"features":[1]}],"edges":[{"u":0,"v":1,"label":"Colleague","interactions":[1,2,3,4,5,-6,7,8]}]}`,
		`{"users":[{"id":1,"features":[1]},{"id":1,"features":[1]}],"edges":[]}`,
		`{"users":[],"edges":null,"groups":[{"members":[0]}]}`,
		`{}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		ds, err := doc.ToDataset()
		if err != nil {
			if ds != nil {
				t.Fatalf("refused with %v, yet returned a dataset", err)
			}
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted a dataset that fails Validate: %v", err)
		}
	})
}
