// Package suppressedge exercises the declaration-scope edge cases of
// //gridvolint:ignore: nested declarations and closures inside a
// suppressed function, directives on methods versus their receiver
// types, and directives inside a grouped declaration.
package suppressedge

import "time"

// A decl-scope directive on a function covers the whole declaration:
// statements, nested var declarations, and closures alike.
//
//gridvolint:ignore noclock testdata exercise: decl scope must cover nested declarations and closures
func nestedCovered() bool {
	now := func() time.Time {
		return time.Now()
	}
	var inner = time.Now()
	return now().After(inner)
}

// A directive on the receiver's type declaration does NOT leak into the
// type's methods: each declaration carries its own scope.
//
//gridvolint:ignore noclock testdata exercise: type decl scope must not reach into methods
type stamp struct{ at time.Time }

func (s stamp) age() time.Duration {
	return time.Since(s.at) // want "time.Since in package suppressedge"
}

// A directive on the method itself does suppress the method body.
//
//gridvolint:ignore noclock testdata exercise: method decl scope covers the method body
func (s stamp) ageSuppressed() time.Duration {
	return time.Since(s.at)
}

// A decl-scope directive on a grouped var declaration covers every spec
// in the group.
//
//gridvolint:ignore noclock testdata exercise: grouped decl scope covers all specs
var (
	t0       = time.Now()
	grouped  = time.Since(t0)
	grouped2 = time.Now()
)

// Outside any declaration's doc comment, line scope still applies: own
// line plus the next.
func lineScoped() (time.Time, time.Time) {
	//gridvolint:ignore noclock testdata exercise: line scope covers the following line only
	first := time.Now()
	second := time.Now() // want "time.Now in package suppressedge"
	return first, second
}
