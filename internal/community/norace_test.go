//go:build !race

package community

// raceBuild is true in a -race test binary (see race_test.go).
const raceBuild = false
