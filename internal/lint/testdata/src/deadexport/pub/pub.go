// Package pub is not under internal/: deadexport leaves its exports
// alone, used or not.
package pub

func Unused() int { return 1 }

type T struct{}

var V = T{}
