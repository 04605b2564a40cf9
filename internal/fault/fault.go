package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gridvo/internal/xrand"
)

// Point identifies a hook site in the solve pipeline. Each layer visits
// exactly one point, so a fault schedule is a deterministic function of
// the injector seed and the sequence of visits.
type Point uint8

const (
	// PointEngine is visited by mechanism.Engine once per coalition
	// evaluation, before the instance is built — the malformed-input
	// faults (empty coalitions, NaN-poisoned costs) fire here.
	PointEngine Point = iota
	// PointSolve is visited by assign.SolveCtx once per IP solve — the
	// mid-branch-and-bound cancellation and artificial-latency faults.
	PointSolve
	// PointReputation is visited by reputation.Global once per power-method
	// solve — the eigenvector non-convergence (iteration-budget
	// exhaustion) fault.
	PointReputation
	// PointTrust is visited by the mechanism loop once per eviction-score
	// computation — the degenerate-input fault that zeroes a trust row.
	PointTrust

	// NumPoints is the number of hook sites.
	NumPoints
)

// String returns the point name.
func (p Point) String() string {
	switch p {
	case PointEngine:
		return "engine"
	case PointSolve:
		return "solve"
	case PointReputation:
		return "reputation"
	case PointTrust:
		return "trust"
	default:
		return fmt.Sprintf("Point(%d)", int(p))
	}
}

// Class is the kind of fault fired at a point.
type Class uint8

const (
	// None means no fault fired at this visit.
	None Class = iota
	// Cancel aborts the branch-and-bound search after a small node count,
	// mimicking a context cancellation mid-solve (PointSolve).
	Cancel
	// Latency sleeps before the solve starts, mimicking a slow or
	// contended solver (PointSolve).
	Latency
	// NonConverge clamps the power iteration's budget so it exhausts
	// before convergence (PointReputation).
	NonConverge
	// ZeroTrustRow removes every outgoing trust edge of one GSP before an
	// eviction-score computation, producing the dangling-row case of
	// eq. (1) (PointTrust).
	ZeroTrustRow
	// PoisonCost sets one cost entry to NaN before the solve, the
	// malformed-matrix input (PointEngine).
	PoisonCost
	// EmptyCoalition replaces the coalition with the empty member set, an
	// input the IP cannot satisfy while tasks remain (PointEngine).
	EmptyCoalition

	// NumClasses is the number of fault classes including None.
	NumClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case None:
		return "none"
	case Cancel:
		return "cancel"
	case Latency:
		return "latency"
	case NonConverge:
		return "non-converge"
	case ZeroTrustRow:
		return "zero-trust-row"
	case PoisonCost:
		return "poison-cost"
	case EmptyCoalition:
		return "empty-coalition"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// pointClasses lists the classes that can fire at each point.
var pointClasses = [NumPoints][]Class{
	PointEngine:     {EmptyCoalition, PoisonCost},
	PointSolve:      {Cancel, Latency},
	PointReputation: {NonConverge},
	PointTrust:      {ZeroTrustRow},
}

// Plan is the injector's decision for one hook visit. The zero value means
// "no fault": consumers switch on Class and ignore the parameter fields of
// classes they did not receive.
type Plan struct {
	// Class identifies the fault, None when nothing fired.
	Class Class
	// CancelAfterNodes is the node count after which a Cancel fault aborts
	// the search.
	CancelAfterNodes int64
	// Sleep is the artificial delay of a Latency fault.
	Sleep time.Duration
	// MaxIter is the clamped power-iteration budget of a NonConverge fault.
	MaxIter int
	// Pick is a raw random value consumers reduce to a choice (which trust
	// row to zero, which cost entry to poison) so the injector needs no
	// knowledge of instance shapes.
	Pick uint64
}

// Fired reports whether the visit produced a fault.
func (p Plan) Fired() bool { return p.Class != None }

// Fault parameters.
const (
	// DefaultCancelNodes, substituted for a zero Config.CancelNodes, is
	// small enough that the search is genuinely cut short on any
	// non-trivial instance, large enough that the incumbent machinery has
	// run.
	DefaultCancelNodes = 64
	// DefaultLatency is the delay of every Latency fault: visible in stats
	// without dominating test wall time.
	DefaultLatency = 200 * time.Microsecond
	// DefaultMaxIter is the power-iteration budget of every NonConverge
	// fault: it cannot reach the default epsilon on any non-trivial graph.
	DefaultMaxIter = 1
)

// Config parameterizes an Injector.
type Config struct {
	// Seed drives the fault schedule; identical seeds over identical visit
	// sequences reproduce identical schedules.
	Seed uint64
	// Rate is the per-visit firing probability in [0,1].
	Rate float64
	// Classes restricts which fault classes may fire; empty enables all.
	Classes []Class
	// CancelNodes overrides DefaultCancelNodes for Cancel plans.
	CancelNodes int64
}

// Stats is a snapshot of injector activity.
type Stats struct {
	// Visits counts hook visits (fired or not).
	Visits int64
	// Fired counts visits that produced a fault.
	Fired int64
	// PerClass counts fired faults by class (index fault.Class).
	PerClass [NumClasses]int64
}

// String renders the snapshot for logs and chaos reports.
func (s Stats) String() string {
	var parts []string
	for c := Class(1); c < NumClasses; c++ {
		if s.PerClass[c] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, s.PerClass[c]))
		}
	}
	sort.Strings(parts)
	detail := ""
	if len(parts) > 0 {
		detail = " (" + strings.Join(parts, ", ") + ")"
	}
	return fmt.Sprintf("%d/%d visits fired%s", s.Fired, s.Visits, detail)
}

// Injector is a seedable, deterministic fault source. Every hook site calls
// Visit once per unit of work; the injector decides from its PRNG whether a
// fault fires there and with what parameters. All methods are safe on a nil
// receiver — a nil *Injector is the no-op default, so the hot path pays one
// pointer check when injection is disabled.
//
// The schedule is a pure function of Config.Seed and the sequence of Visit
// calls, so it is reproducible only when visits are sequenced
// deterministically (the chaos harness runs sweeps sequentially for exactly
// this reason). Visit itself is safe for concurrent use.
type Injector struct {
	mu          sync.Mutex
	rng         *xrand.RNG
	rate        float64
	cancelNodes int64
	// classes[p] is the enabled subset of pointClasses[p], precomputed so
	// Visit does no filtering.
	classes [NumPoints][]Class
	stats   Stats
}

// New builds an injector from the config, substituting DefaultCancelNodes
// for a zero CancelNodes. A rate of 0 yields an injector that visits but never
// fires — useful for measuring hook overhead. The rate must be in [0, 1];
// New does not check it: a NaN rate or one above 1 fires at every visit,
// and one below 0 never fires. Callers validate it first, as
// sim.ChaosSweep and vosim's -chaos flag do.
func New(cfg Config) *Injector {
	in := &Injector{
		rng:         xrand.New(cfg.Seed).Split("fault"),
		rate:        cfg.Rate,
		cancelNodes: cfg.CancelNodes,
	}
	if in.cancelNodes <= 0 {
		in.cancelNodes = DefaultCancelNodes
	}
	enabled := map[Class]bool{}
	for _, c := range cfg.Classes {
		enabled[c] = true
	}
	for p := Point(0); p < NumPoints; p++ {
		for _, c := range pointClasses[p] {
			if len(cfg.Classes) == 0 || enabled[c] {
				in.classes[p] = append(in.classes[p], c)
			}
		}
	}
	return in
}

// Visit draws the fault decision for one unit of work at a hook site. On a
// nil receiver it returns the zero Plan without drawing anything.
//
// Every visit consumes exactly one decision draw whether or not it fires,
// so the schedule at later visits does not depend on which classes earlier
// visits had enabled.
func (in *Injector) Visit(p Point) Plan {
	if in == nil {
		return Plan{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Visits++
	u := in.rng.Float64()
	classes := in.classes[p]
	if len(classes) == 0 || u >= in.rate {
		return Plan{}
	}
	c := classes[0]
	if len(classes) > 1 {
		c = classes[in.rng.IntN(len(classes))]
	}
	plan := Plan{Class: c, Pick: in.rng.Uint64()}
	switch c {
	case Cancel:
		plan.CancelAfterNodes = in.cancelNodes
	case Latency:
		plan.Sleep = DefaultLatency
	case NonConverge:
		plan.MaxIter = DefaultMaxIter
	}
	in.stats.Fired++
	in.stats.PerClass[c]++
	return plan
}

// Stats returns a snapshot of injector activity (zero on a nil receiver).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// String summarizes the injector's activity.
func (in *Injector) String() string {
	if in == nil {
		return "fault: disabled"
	}
	return "fault: " + in.Stats().String()
}
