package use

import "deadexport/internal/kinds"

func Run() int { // want `exported func use.Run has no user: delete it`
	c := kinds.New()
	c.Add(1)
	var d interface{ Shut() error } = kinds.Door{}
	_ = d.Shut()
	return kinds.Box[int]{V: 1}.Get()
}
