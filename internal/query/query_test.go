package query_test

import (
	"net/url"
	"testing"

	"locec/internal/query"
)

// FuzzEdgeQuery holds Get to url.Query().Get on arbitrary query strings
// and keys.
func FuzzEdgeQuery(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"u=1&v=2", "u"},
		{"u=1&v=2", "v"},
		{"v=2&u=1&u=3", "u"},
		{"u=1;v=2&u=4", "u"},
		{"%75=5&u=6", "u"},
		{"u=%zz&u=7", "u"},
		{"%zz=1&u=8", "u"},
		{"u+x=1&u%20x=2", "u x"},
		{"u=a+b%2Bc", "u"},
		{"&&u&u=9", "u"},
		{"", "u"},
		{"u=1", ""},
		{"=1&u=2", ""},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		want := (&url.URL{RawQuery: raw}).Query().Get(key)
		if got := query.Get(raw, key); got != want {
			t.Fatalf("Get(%q, %q) = %q, url.Query().Get = %q", raw, key, got, want)
		}
	})
}

func TestGetAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if query.Get("u=12&v=345", "v") != "345" {
			t.Fatal("wrong value")
		}
	}); n != 0 {
		t.Fatalf("Get: %.1f allocations, want 0", n)
	}
}
