//go:build race

package community

// raceBuild is true in a -race test binary. There sync.Pool drops a
// quarter of its Puts on purpose, so a run may rebuild its scratch and
// allocation counts that rely on the pool do not hold.
const raceBuild = true
