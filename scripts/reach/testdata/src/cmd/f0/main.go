package main

func main() { helper() }

// helper is reached in this binary only.
func helper() {}
