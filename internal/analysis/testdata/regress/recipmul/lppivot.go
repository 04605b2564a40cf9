// This file reproduces the violation gridvolint found in the simplex
// pivot of the LP solver the module once carried: the pivot row was
// normalized by multiplying with 1/row[enter], so a subnormal pivot
// element would have poisoned the whole tableau row with +Inf. The fix
// divided directly; the solver itself has since been deleted.
package regress

func pivotRow(row []float64, enter int) {
	inv := 1 / row[enter]
	for j := range row {
		row[j] *= inv // want "multiplying by reciprocal"
	}
}
