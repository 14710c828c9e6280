package main

import (
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"time"
)

// refN is the edge of the reference transform's field.
const refN = 512

// refNominal is the reference workload's median time on the machine the
// benchmark was defined on, a 2-vCPU x86-64 virtual machine.
const refNominal = 65 * time.Millisecond

// hostAdjusted scales a wall time measured while the reference workload
// took refS to what it would be were the reference taking refNominal:
// the time the same work takes on the defining machine at its usual
// pace. On a machine shared with other tenants this removes most of the
// drift between runs; the wall time is reported beside it.
func hostAdjusted(wallS, refS float64) float64 {
	return wallS * refNominal.Seconds() / refS
}

// hostRef times a fixed workload shaped like the program's hot loop but
// owned by the benchmark, so no change to the program moves it: eight
// 2-D FFTs of a 512² complex field, rows then columns, each pass split
// over one goroutine per CPU. It tracks how fast the machine runs right
// now; the other tenants of a shared machine move it by a third within
// minutes.
func hostRef() time.Duration {
	refOnce.Do(func() {
		refField = make([]complex128, refN*refN)
		refTwiddle = make([]complex128, refN/2)
		for k := range refTwiddle {
			refTwiddle[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/refN))
		}
	})
	for i := range refField {
		refField[i] = complex(float64(i%7), 0)
	}
	start := time.Now()
	for k := 0; k < 8; k++ {
		refPass(false)
		refPass(true)
	}
	return time.Since(start)
}

var (
	refOnce    sync.Once
	refField   []complex128
	refTwiddle []complex128
)

// refPass transforms every row, or every column, of refField.
func refPass(cols bool) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]complex128, refN)
			for r := w; r < refN; r += workers {
				if !cols {
					refFFT(refField[r*refN : (r+1)*refN])
					continue
				}
				for i := range buf {
					buf[i] = refField[i*refN+r]
				}
				refFFT(buf)
				for i := range buf {
					refField[i*refN+r] = buf[i] / refN
				}
			}
		}(w)
	}
	wg.Wait()
}

// refFFT is an in-place iterative radix-2 FFT of length refN.
func refFFT(x []complex128) {
	for i, j := 1, 0; i < refN; i++ {
		bit := refN >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= refN; size <<= 1 {
		half, step := size/2, refN/size
		for s := 0; s < refN; s += size {
			for k := 0; k < half; k++ {
				t := refTwiddle[k*step] * x[s+k+half]
				x[s+k+half] = x[s+k] - t
				x[s+k] += t
			}
		}
	}
}
