//go:build !race

package core

// raceBuild is true in a -race test binary (see race_test.go).
const raceBuild = false
