package sib

import (
	"fmt"

	"deadexport/internal/lib"
)

func Run() {
	fmt.Println(lib.T{}, lib.Shared())
}
