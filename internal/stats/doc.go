// Package stats provides the descriptive statistics used by the experiment
// harness: the mean, sample standard deviation and 95% confidence interval
// of a replicated measurement, the per-point values reported in the
// paper's figures.
package stats
