package main

import "deadexport/internal/sib"

func main() { sib.Run() }
