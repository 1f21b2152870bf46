package main

import "deadexport/internal/lib"

func main() { println(lib.BenchOnly()) }
