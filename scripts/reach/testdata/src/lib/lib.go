// Package lib is the reach fixture: one declaration per way a symbol can
// appear in the linker's edge dump.
package lib

type P struct{}

// Ptr has a pointer receiver: fixture/lib.(*P).Ptr.
func (p *P) Ptr() {}

type V struct{}

// Val has a value receiver and is dumped with an ABI suffix.
func (v V) Val() {}

// Gen is dumped as a shape instance: fixture/lib.Gen[go.shape.int].
func Gen[T any](x T) T { return x }

type S[T any] struct{ x T }

// Get is a method of a generic type: fixture/lib.(*S[go.shape...]).Get.
func (s *S[T]) Get() T { return s.x }

// Dead is named only by a deduplicated data symbol, Dead.arginfo1, which
// must not mark it.
func Dead() {}

// Root is an api entry: only the generated api main links it.
func Root() { rootHelper() }

// rootHelper is reached because an api entry calls it.
func rootHelper() {}

func init() {}
