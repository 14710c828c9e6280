//go:build !amd64

package fft

// fastKernel is the kernel of plans of length ≥ 8. Without the amd64
// assembly it is the Go loops.
var fastKernel = &goKernel
