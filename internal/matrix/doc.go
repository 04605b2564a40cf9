// Package matrix implements the linear-algebra kernel used by the
// reputation subsystem: the compressed-sparse-row trust matrix, its row
// normalization (eq. 1 of the paper) and the transpose-times-vector
// product at the heart of the power method (Algorithm 2), plus the
// vector helpers the power method and the selection need.
//
// All operations are deterministic: sums accumulate in ascending row and
// column order, the order of a dense row-major sweep, so results are
// bitwise reproducible and bitwise equal to that dense formulation.
package matrix
