//go:build race

package litho

func init() { raceBuild = true }
