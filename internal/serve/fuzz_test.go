package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
