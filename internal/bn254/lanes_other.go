//go:build !amd64 || purego

package bn254

// laneKernel is false off amd64 and under -tags purego: every span runs
// the scalar ladder.
const laneKernel = false

func vmul(z, x, y *laneElem, c *laneConsts) { panic("bn254: no lane kernel") }
func vadd(z, x, y *laneElem, c *laneConsts) { panic("bn254: no lane kernel") }
func vsub(z, x, y *laneElem, c *laneConsts) { panic("bn254: no lane kernel") }
