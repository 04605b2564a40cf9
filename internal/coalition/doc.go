// Package coalition implements the coalitional-game machinery of
// Section II-C of the paper: characteristic functions, the equal-share
// payoff division (eq. 18), core membership, the exact Shapley value (for
// analysis; the paper adopts equal sharing for tractability), the
// hedonic preference relation over (payoff, reputation) outcomes, and
// the individual-stability test of Definition 1.
//
// Players are identified by dense indices 0..n-1 and coalitions by sorted
// index slices; internally coalitions are memoized by bitmask, so games are
// limited to 63 players — far above the m = 16 of the paper's experiments.
package coalition
