// Package lib holds one export of each kind deadexport tells apart.
package lib

import "strconv"

func Unused() int { return 1 } // want `exported func lib.Unused has no user: delete it`

func OnlyHere() int { return 2 } // want `exported func lib.OnlyHere is used only inside package lib: unexport it`

func Shared() int { return OnlyHere() }

// T is used from sib; its String method is only ever called through
// fmt.Stringer.
type T struct{ n int }

func (t T) String() string { return strconv.Itoa(t.n) }

// BenchOnly is referenced from the bench module alone.
func BenchOnly() int { return 3 }

// Pinned is kept for the result its test pins.
//
//summarylint:ignore Theorem 1, TestPinned
func Pinned() int { return 4 }
