//go:build amd64

package main

import "strings"

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// cpuModel returns the processor brand string (CPUID leaves
// 0x80000002-0x80000004).
func cpuModel() string {
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}

// hasAVX applies internal/nn's gate for its AVX kernels: OSXSAVE and AVX in
// CPUID.1:ECX, and XMM and YMM state enabled in XCR0.
func hasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&0x6 == 0x6
}
