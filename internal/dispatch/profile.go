package dispatch

// Profile is the retired kernel table. Routing reads no table, so
// nothing fills or reads a Profile.
//
// Deprecated: kept only so old callers compile; it carries nothing.
type Profile struct{}

// DefaultProfile returns nil: there is no kernel table.
//
// Deprecated: routing reads no table; pass nil to New.
func DefaultProfile() *Profile { return nil }

// Host returns nil: there is no per-host kernel table.
//
// Deprecated: routing reads no table; pass nil to New.
func Host() *Profile { return nil }

// Calibrate measures nothing and returns nil.
//
// Deprecated: routing is a fixed rule and probes no kernel.
func Calibrate() *Profile { return nil }
