package online

import "repro/internal/mmd"

// MinMaxSupportUtility exposes stream s's support utilities, as
// Normalize computes them, to the external test package.
func MinMaxSupportUtility(in *mmd.Instance, s int) (minW, sumW float64, ok bool) {
	su := supportUtilities(in)[s]
	return su.minW, su.sumW, su.ok
}

// ReferenceNormalize exposes referenceNormalize, FuzzNormalizeMatchesReference's
// oracle.
var ReferenceNormalize = referenceNormalize
