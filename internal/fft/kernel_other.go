//go:build !amd64

package fft

// fastKernel is the kernel of plans of length ≥ 8. Without the amd64
// assembly it is the Go loops.
var fastKernel = &goKernel

func unpackVec(z0, z1, e0, e1 []complex128) int { return 0 }

const unpackAVX2OK = false
