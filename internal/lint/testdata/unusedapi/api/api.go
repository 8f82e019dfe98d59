// Package api is the unusedapi fixture's library.
package api

func Flagged() {} // want "Flagged has no use"

//lint:allow unusedapi the fixture's deliberate API
func Allowed() {}

// UsedElsewhere is called from another package of the module only.
func UsedElsewhere() int { return Limit }

const Limit = 3

// TestOnly is called only from api_test.go, which is not loaded.
func TestOnly() {} // want "TestOnly has no use"

// Recursive's call to itself is inside its own declaration.
func Recursive(n int) int { // want "Recursive has no use"
	return Recursive(n - 1)
}

// Shown is used by the user package; fmt.Stringer reaches String.
type Shown struct{}

func (Shown) String() string { return "shown" }

func (Shown) Extra() {} // want "Extra has no use"

// Orphan is named only by its methods' receivers.
type Orphan struct{} // want "Orphan has no use"

func (Orphan) Error() string { return "orphan" }
