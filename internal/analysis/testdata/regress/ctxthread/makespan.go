// Package assign reproduces the ctxthread violation gridvolint found
// in the makespan bound the module once carried (assign.MinMakespan): an
// exported branch-and-bound entry point whose search loop could not
// observe cancellation. The fix added a context-polling variant and
// delegated the legacy name to it; the bound itself has since been
// deleted.
package assign

type instance struct {
	time [][]float64
}

func maxTime(in *instance, j int) float64 {
	m := in.time[0][j]
	for g := 1; g < len(in.time); g++ {
		if in.time[g][j] > m {
			m = in.time[g][j]
		}
	}
	return m
}

// MinMakespan drives module code in an uncancellable loop.
func MinMakespan(in *instance) float64 { // want "accepts no context.Context"
	best := 0.0
	for j := 0; j < len(in.time[0]); j++ {
		if t := maxTime(in, j); t > best {
			best = t
		}
	}
	return best
}
