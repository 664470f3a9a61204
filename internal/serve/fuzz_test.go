package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/testutil/trained"
)

// FuzzClassifyBody: POST /v1/classify on an immutable server answers 200,
// 400 or 413 and never a 5xx; it answers 200 exactly when json.Unmarshal
// finds at least one edge in the body, with one result per edge echoing
// its u and v; and the same body sent again is a cache hit with the same
// bytes.
func FuzzClassifyBody(f *testing.F) {
	s, err := New(Config{Artifact: trained.Artifact(f, 80, "labelprop", false).Path, Logger: discardLogger()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	for _, body := range []string{
		`{"edges":[{"u":0,"v":1},{"u":3,"v":2},{"u":0,"v":0}]}`,
		`{}`,
		`{"edges":[]}`,
		`{"edges":[{"u":79,"v":80},{"u":1000000,"v":4294967295}]}`,
		`{"edges":[{"u":4294967296,"v":1}]}`,
		`{"edges":[{"u":0,"v":1},{"u":2`,
	} {
		f.Add([]byte(body))
	}
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(body)
		var req struct {
			Edges []struct {
				U uint32 `json:"u"`
				V uint32 `json:"v"`
			} `json:"edges"`
		}
		decoded := json.Unmarshal(body, &req) == nil && len(req.Edges) > 0
		switch {
		case len(body) > maxClassifyBody:
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body: %d, want 413", len(body), rec.Code)
			}
		case decoded != (rec.Code == http.StatusOK):
			t.Fatalf("%q: %d %s, json.Unmarshal finds %d edges", body, rec.Code, rec.Body, len(req.Edges))
		case rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest:
			t.Fatalf("%q: %d %s, want 200 or 400", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK {
			var doc struct {
				Results []struct {
					U uint32 `json:"u"`
					V uint32 `json:"v"`
				} `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("%q: reply %s: %v", body, rec.Body, err)
			}
			if len(doc.Results) != len(req.Edges) {
				t.Fatalf("%q: %d results for %d edges", body, len(doc.Results), len(req.Edges))
			}
			for i, e := range req.Edges {
				if doc.Results[i].U != e.U || doc.Results[i].V != e.V {
					t.Fatalf("%q: result %d is {%d,%d}, edge {%d,%d}", body, i, doc.Results[i].U, doc.Results[i].V, e.U, e.V)
				}
			}
		}
		again := post(body)
		if again.Code != rec.Code || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("%q: sent again, %d %s; first %d %s", body, again.Code, again.Body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK && again.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%q: sent again, X-Cache %q, want hit", body, again.Header().Get("X-Cache"))
		}
	})
}

// FuzzMutationsBody: POST /v1/mutations on a mutable server answers 200,
// 202, 400, 409 or 413 and never a 5xx. A 2xx comes back exactly when
// json.Unmarshal finds a non-empty batch whose every operation passes the
// rules restated in validMutation: 202 without "wait", else 200, or 409
// when an operation conflicts with the graph as the batch's earlier
// operations leave it (conflicts). A refused body leaves the snapshot
// version unchanged; a 200 publishes exactly one version. Each request
// starts once the applier has settled the previous one.
func FuzzMutationsBody(f *testing.F) {
	s, err := New(Config{Artifact: mutableArtifact(f), Logger: discardLogger()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	u, v := anyEdge(s)
	for _, body := range []string{
		`{"mutations":[{"op":"relabel","u":` + itoa(u) + `,"v":` + itoa(v) + `,"label":"family"}],"wait":true}`,
		`{"mutations":[{"op":"remove","u":` + itoa(u) + `,"v":` + itoa(v) + `},{"op":"add","u":` + itoa(u) + `,"v":` + itoa(v) + `,"interactions":[1,2,3,4,5,6,7,8]}],"wait":true}`,
		`{"mutations":[{"op":"add","u":` + itoa(u) + `,"v":` + itoa(v) + `}],"wait":true}`,
		`{"mutations":[{"op":"add","u":0,"v":79,"label":"colleague","revealed":true}]}`,
		`{"mutations":[{"op":"add","u":1,"v":2,"interactions":[1,2,3]}],"wait":true}`,
		`{"mutations":[{"op":"relabel","u":1,"v":2}]}`,
		`{"mutations":[{"op":"move","u":1,"v":2}]}`,
		`{"mutations":[{"op":"add","u":3,"v":3}]}`,
		`{"mutations":[{"op":"remove","u":0,"v":80}]}`,
		`{"mutations":[{"op":"add","u":4294967296,"v":1}]}`,
		`{"mutations":[]}`,
		`{}`,
		`{"mutations":[{"op":"add","u":0,`,
	} {
		f.Add([]byte(body))
	}
	settle := func() { // an epoch publishes before its jobs leave the pending count
		for s.mutPending.Load() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		settle()
		before := s.current()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mutations", bytes.NewReader(body)))
		var req mutationsRequest
		valid := json.Unmarshal(body, &req) == nil && len(req.Mutations) > 0 &&
			!slices.ContainsFunc(req.Mutations, func(d mutationDoc) bool { return !validMutation(d, before.ds.G.NumNodes()) })
		want := http.StatusBadRequest
		switch {
		case len(body) > maxClassifyBody:
			want = http.StatusRequestEntityTooLarge
		case !valid:
		case !req.Wait:
			want = http.StatusAccepted
		case conflicts(before.ds.G, req.Mutations):
			want = http.StatusConflict
		default:
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Fatalf("%q: %d %s, want %d", body, rec.Code, rec.Body, want)
		}
		settle()
		switch after := s.current().version; {
		case rec.Code == http.StatusOK && after != before.version+1:
			t.Fatalf("%q: applied, version %d -> %d", body, before.version, after)
		case rec.Code >= 400 && after != before.version:
			t.Fatalf("%q: refused with %d, yet version %d -> %d", body, rec.Code, before.version, after)
		}
	})
}

// validMutation restates the per-operation rules of POST /v1/mutations on
// a snapshot of n nodes: distinct ends in range; add with an optional
// known label and an optional interaction row core accepts; remove; and
// relabel with a known label.
func validMutation(d mutationDoc, n int) bool {
	if d.U == d.V || int(d.U) >= n || int(d.V) >= n {
		return false
	}
	known := slices.Contains([]string{"colleague", "family", "schoolmate", "other"}, d.Label)
	switch d.Op {
	case "add":
		return (d.Label == "" || known) && core.CheckInteractions(d.Interactions) == nil
	case "remove":
		return true
	case "relabel":
		return known
	}
	return false
}

// conflicts reports whether an operation of batch meets the graph in the
// wrong state, g as the batch's earlier operations leave it: an add of an
// edge that exists, or a remove or relabel of one that does not.
func conflicts(g *graph.Graph, batch []mutationDoc) bool {
	edited := map[graph.Edge]bool{}
	for _, d := range batch {
		e := graph.Edge{U: graph.NodeID(d.U), V: graph.NodeID(d.V)}.Canon()
		has, ok := edited[e]
		if !ok {
			has = g.HasEdge(e.U, e.V)
		}
		if has == (d.Op == "add") {
			return true
		}
		if d.Op != "relabel" {
			edited[e] = d.Op == "add"
		}
	}
	return false
}

func itoa(x uint32) string { return strconv.FormatUint(uint64(x), 10) }
