//go:build race

package core

// raceBuild is true in a -race test binary. There sync.Pool drops a
// quarter of its Puts on purpose, so pooled scratch is reallocated at
// random and allocation bounds that count on the pool do not hold.
const raceBuild = true
