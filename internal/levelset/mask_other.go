//go:build !amd64

package levelset

func maskVec(dst, psi []float64) int { return 0 }
