//go:build !race

package router_test

// raceBuild is true in a -race test binary (see race_test.go).
const raceBuild = false
