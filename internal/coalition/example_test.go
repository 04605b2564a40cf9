package coalition_test

import (
	"fmt"

	"gridvo/internal/coalition"
)

// ExampleGame demonstrates the coalitional-game analytics on the classic
// 3-player majority game (v(S)=1 iff |S| ≥ 2): symmetric Shapley values,
// and an empty core, so even the equal split of v(N) = 1 is blocked by a
// two-player coalition.
func ExampleGame() {
	g := coalition.NewGame(3, func(members []int) float64 {
		if len(members) >= 2 {
			return 1
		}
		return 0
	})

	phi := g.Shapley()
	fmt.Printf("Shapley: %.3f %.3f %.3f\n", phi[0], phi[1], phi[2])

	third := g.EqualShares([]int{0, 1, 2})
	in, blocking := g.InCore([]float64{third, third, third}, 1e-9)
	fmt.Printf("equal shares in core: %v (blocked by %v)\n", in, blocking)
	// Output:
	// Shapley: 0.333 0.333 0.333
	// equal shares in core: false (blocked by [0 1])
}
