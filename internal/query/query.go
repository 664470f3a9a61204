// Package query reads one value from a raw URL query string without
// building url.Values: a request that names two ids pays for no map, no
// slices and no copies of the strings it already holds.
package query

import (
	"net/url"
	"strings"
)

// Get is url.ParseQuery(raw).Get(key): the value of the first
// well-formed pair named key, or "". Pairs split on '&'; an empty pair,
// one holding ';', and one whose name or value does not unescape are
// skipped. Only a name or value holding '%' or '+' is unescaped, so the
// common one is returned as a substring of raw.
func Get(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		name, value, _ := strings.Cut(pair, "=")
		if name, ok := unescape(name); !ok || name != key {
			continue
		}
		if value, ok := unescape(value); ok {
			return value
		}
	}
	return ""
}

// unescape is url.QueryUnescape, skipped when s has nothing to unescape.
func unescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	s, err := url.QueryUnescape(s)
	return s, err == nil
}
