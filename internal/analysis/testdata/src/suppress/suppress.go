// Package suppress is golden testdata for the //gridvolint:ignore
// directive machinery, exercised through the noclock check.
package suppress

import "time"

// inlineSuppressed carries a directive on the line above the finding.
func inlineSuppressed() time.Time {
	//gridvolint:ignore noclock golden-test exception: wall-clock read intended
	return time.Now()
}

// declSuppressed is covered by a doc-comment directive for its whole
// body.
//
//gridvolint:ignore noclock golden-test exception: whole function measures wall time
func declSuppressed() time.Duration {
	t0 := time.Now()
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0)
}

// unknownCheck names a check that does not exist: the directive itself
// becomes a diagnostic and nothing is suppressed.
func unknownCheck() time.Time {
	//gridvolint:ignore nosuchcheck the check name is wrong
	// want-above "malformed suppression"
	return time.Now() // want "time.Now in package suppress"
}

// missingReason omits the mandatory reason: also malformed, also not
// suppressing.
func missingReason() time.Time {
	//gridvolint:ignore noclock
	// want-above "malformed suppression"
	return time.Now() // want "time.Now in package suppress"
}

// wrongCheck suppresses a different check than the one that fires.
func wrongCheck() time.Time {
	//gridvolint:ignore maporder golden-test exception: wrong check on purpose
	return time.Now() // want "time.Now in package suppress"
}

// outOfRange sits too far above the finding to cover it.
func outOfRange(t0 time.Time) time.Duration {
	//gridvolint:ignore noclock golden-test exception: two lines up, covers nothing
	_ = t0
	return time.Since(t0) // want "time.Since in package suppress"
}

// perfunctoryReason carries a one-word reason: enough for the runtime
// suppression filter, but the -audit inventory flags it as perfunctory.
func perfunctoryReason() time.Time {
	//gridvolint:ignore noclock intended
	return time.Now()
}
