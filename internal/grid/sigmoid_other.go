//go:build !amd64

package grid

// Without the amd64 assembly the Go loop is the only sigmoid kernel.
const sigmoidAVX2OK = false

func sigmoidVec(dst, a []float64, dose, s, t float64) (n int, slow bool) { return 0, false }
