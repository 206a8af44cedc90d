package nn

import "pipedream/internal/tensor"

// What the external tests (package nn_test) share with the internal ones:
// the ownership stacks, which between them hold every layer type of the
// package, and the bit-pattern helpers.
var (
	OwnershipStacks = ownershipStacks
	BitsOf          = bitsOf
	SameBits        = sameBits
)

// InputHalf runs l's input half and reports true when l's backward
// splits; it runs nothing and reports false when l's backward is one piece.
func InputHalf(l Layer, ctx Context, gradOut *tensor.Tensor) (*tensor.Tensor, bool) {
	if sp := split(l); sp != nil {
		return sp.backwardInput(ctx, gradOut), true
	}
	return nil, false
}
