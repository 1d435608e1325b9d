//go:build amd64 && !purego

package bn254

// laneKernel reports whether this CPU runs the lane kernel: AVX-512 F, DQ
// and IFMA, with the OS saving the opmask and all 32 ZMM registers. It is
// read once; nothing else selects between the lane and scalar paths.
var laneKernel = detectLaneKernel()

func detectLaneKernel() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	// XCR0: SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq, avx512ifma = 1 << 16, 1 << 17, 1 << 21
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512dq|avx512ifma) == avx512f|avx512dq|avx512ifma
}

// vmul sets z = x·y·2^−260 mod p in every lane (lanes_amd64.s).
//
//go:noescape
func vmul(z, x, y *laneElem, c *laneConsts)

// vadd sets z = x + y mod p in every lane, in [0, 2p).
//
//go:noescape
func vadd(z, x, y *laneElem, c *laneConsts)

// vsub sets z = x − y mod p in every lane, in [0, 2p).
//
//go:noescape
func vsub(z, x, y *laneElem, c *laneConsts)

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)
