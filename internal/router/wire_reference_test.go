package router_test

// The router's wire code before it relayed bytes, kept as oracles: the
// reply reader was net/http's, and the classify gather decoded every
// shard reply into json.RawMessage elements and encoded the gathered
// document from a map.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
)

// referenceReadResponse reads one reply with http.ReadResponse and the
// whole body; keep is what HTTPTransport decided from it.
func referenceReadResponse(rd *bufio.Reader) (status int, body []byte, keep bool, err error) {
	hr, err := http.ReadResponse(rd, nil)
	if err != nil {
		return 0, nil, false, err
	}
	if body, err = io.ReadAll(hr.Body); err != nil {
		return 0, nil, false, err
	}
	return hr.StatusCode, body, !hr.Close && rd.Buffered() == 0, nil
}

// referenceResults is the elements of a classify reply's "results" as
// json.Unmarshal finds them.
func referenceResults(body []byte) ([]json.RawMessage, error) {
	var doc struct {
		Results []json.RawMessage `json:"results"`
	}
	err := json.Unmarshal(body, &doc)
	return doc.Results, err
}

// referenceGather is the gathered classify reply: owner[i] is the shard
// of request edge i, replies holds the reply of every shard that answered
// and missing the shards that did not, ascending.
func referenceGather(owner []int, replies map[int][]byte, missing []int) ([]byte, error) {
	results := make([]json.RawMessage, len(owner))
	next := map[int]int{}
	for i, s := range owner {
		reply, ok := replies[s]
		if !ok {
			continue
		}
		elems, err := referenceResults(reply)
		if err != nil {
			return nil, err
		}
		results[i] = elems[next[s]]
		next[s]++
	}
	doc := map[string]any{
		"results": results,
		"partial": len(missing) > 0,
	}
	if len(missing) > 0 {
		doc["missing_shards"] = missing
	}
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(doc)
	return b.Bytes(), err
}
