package nn

// What the external tests (package nn_test) share with the internal ones:
// the ownership stacks, which between them hold every layer type of the
// package, and the bit-pattern helpers.
var (
	OwnershipStacks = ownershipStacks
	BitsOf          = bitsOf
	SameBits        = sameBits
)
