//go:build amd64 && !purego

package cpufeat

// AVX2 reports whether the CPU and the OS support AVX2: CPUID leaf 7's
// AVX2 bit, plus leaf 1's AVX and OSXSAVE bits and XGETBV's XMM and YMM
// state, the checks the Go runtime's internal/cpu makes.
var AVX2 = hasAVX2()

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2 // XCR0: the OS saves XMM and YMM registers
	if xcr0, _ := xgetbv(); xcr0&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
