package lib

// armOnly is linked only by the GOARCH=arm64 build.
func armOnly() {}
