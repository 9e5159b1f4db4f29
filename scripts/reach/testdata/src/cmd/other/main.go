package main

func main() {}

// helper shares its name with cmd/f0's helper but no binary links it.
func helper() {}
