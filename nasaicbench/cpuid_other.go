//go:build !amd64

package main

func cpuModel() string { return "unknown" }

// hasAVX is false off amd64, where internal/nn has no AVX kernels.
func hasAVX() bool { return false }
