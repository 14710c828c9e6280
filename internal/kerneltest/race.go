//go:build race

package kerneltest

func init() { raceBuild = true }
