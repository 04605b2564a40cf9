package mechanism

import (
	"context"
	"errors"
	"sync"

	"gridvo/internal/xrand"
)

// RunPairContext runs two mechanisms on one scenario and one engine — the
// paper's TVOF/RVOF comparison — concurrently, and returns exactly what
// RunContext(leader) followed by RunContext(follower) on that engine
// returns: the same iterations, selections, reputations, degradation,
// fault counts and per-run Stats (Duration aside, which now includes
// contention from the sibling run).
//
// The runs share only the engine's cache, and one precedence rule keeps
// the follower's view of it sequential: before each engine lookup of a
// coalition C, the follower waits while the leader can still solve C
// itself — while the leader is not done, C ⊆ the leader's current VO, and
// that VO is larger than C or equals C with its solve still running.
// Without churn the leader's chain is nested and shrinks every iteration,
// so the follower never solves a coalition the leader will reach and the
// leader never reads an entry the follower wrote; parent seeds and the
// selected-VO re-requests see the cache the sequential runs see.
//
// When the leader's future lookups cannot be bounded that way the
// follower waits for the leader to finish before it starts: under churn
// (re-joins break the nesting) and under the engine's fault injector (its
// schedule is a single stream consumed in visit order).
//
// The engine is leader.Engine, or a fresh one for the scenario; the
// follower must name the same engine or none, and so shares its injector.
func RunPairContext(ctx context.Context, sc *Scenario, leader, follower Options, rngL, rngF *xrand.RNG) (lead, follow *Result, err error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	eng, err := engineFor(sc, &leader)
	if err != nil {
		return nil, nil, err
	}
	if follower.Engine != nil && follower.Engine != eng {
		return nil, nil, errPairEngine
	}
	leader.Engine, follower.Engine = eng, eng

	// The leader starts at the grand coalition, unsolved; every member
	// below 64 is in it.
	link := &pairLink{strict: eng.injected() || len(leader.Churn) > 0, low: ^uint64(0), size: sc.M()}
	link.cond.L = &link.mu

	var ferr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		follow, ferr = run(ctx, sc, follower, rngF, &pairSide{link: link})
	}()
	lead, err = run(ctx, sc, leader, rngL, &pairSide{link: link, lead: true})
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if ferr != nil {
		return nil, nil, ferr
	}
	return lead, follow, nil
}

var errPairEngine = errors.New("mechanism: pair runs must share one engine")

// pairLink is the leader's progress as the follower of a pair sees it.
type pairLink struct {
	mu   sync.Mutex
	cond sync.Cond
	// strict makes the follower wait for the whole leader run.
	strict bool
	// done is set when the leader run returns.
	done bool
	// low holds the leader's current VO members below 64 as a mask, size
	// its member count; solved reports that the leader's lookup of that
	// VO has returned. Coalitions with a member of 64 or above cannot be
	// keyed, so they never touch the cache and need no wait.
	low    uint64
	size   int
	solved bool
}

// pairSide is one run's handle on a pairLink. A nil *pairSide is a solo
// run and every method is a no-op.
type pairSide struct {
	link *pairLink
	lead bool
}

// start blocks a strict follower until the leader is done.
func (s *pairSide) start() {
	if s == nil || s.lead || !s.link.strict {
		return
	}
	l := s.link
	l.mu.Lock()
	for !l.done {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// before precedes each engine lookup of members: the leader publishes
// members as its current VO; the follower waits while the leader can
// still solve members itself.
func (s *pairSide) before(members []int) {
	if s == nil {
		return
	}
	l := s.link
	if s.lead {
		var low uint64
		for _, g := range members {
			if g < 64 {
				low |= 1 << uint(g)
			}
		}
		l.mu.Lock()
		l.low, l.size, l.solved = low, len(members), false
		l.mu.Unlock()
		l.cond.Broadcast()
		return
	}
	c, ok := memberMask(members)
	if !ok {
		return
	}
	l.mu.Lock()
	// c ⊆ the leader's VO implies size ≥ len(members); equality means the
	// VO is members itself.
	for !l.done && c&^l.low == 0 && (l.size > len(members) || !l.solved) {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// after follows each engine lookup: the leader's VO is now solved.
func (s *pairSide) after() {
	if s == nil || !s.lead {
		return
	}
	s.link.mu.Lock()
	s.link.solved = true
	s.link.mu.Unlock()
	s.link.cond.Broadcast()
}

// finish marks the leader run done, releasing every wait.
func (s *pairSide) finish() {
	if s == nil || !s.lead {
		return
	}
	s.link.mu.Lock()
	s.link.done = true
	s.link.mu.Unlock()
	s.link.cond.Broadcast()
}
