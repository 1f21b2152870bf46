// Package kinds holds the declaration kinds deadexport checks besides
// funcs: types, vars, consts and methods, with the ways a name outside
// its package can be used without being written.
package kinds

type Unused struct{} // want `exported type kinds.Unused has no user: delete it`

var Var = 1 // want `exported var kinds.Var has no user: delete it`

const Const = 2 // want `exported const kinds.Const is used only inside package kinds: unexport it`

var local = Const

// Counter is never written outside, but New's result spells it, and its
// exported field Total spells Sum. Its unexported field spells nothing.
type Counter struct {
	Total  Sum
	hidden Hidden
}

type Sum int

type Hidden int // want `exported type kinds.Hidden is used only inside package kinds: unexport it`

func New() *Counter { return &Counter{} }

func (c *Counter) Add(n int) { c.Total += Sum(n) }

func (c *Counter) Reset() { c.Total = 0 } // want `exported method kinds.Counter.Reset has no user: delete it`

// Loop's only caller is itself, which is not a use.
func Loop(n int) int { // want `exported func kinds.Loop has no user: delete it`
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

// Door's Shut is called only through an interface literal.
type Door struct{}

func (Door) Shut() error { return nil }

// Box's method is used through an instantiation, Box[int].
type Box[T any] struct{ V T }

func (b Box[T]) Get() T { return b.V }
