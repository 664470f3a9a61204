//go:build race

package router_test

// raceBuild is true in a -race test binary, whose allocation counts are
// not a production build's.
const raceBuild = true
