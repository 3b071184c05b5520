// Package vprog defines the vertex-program contract shared by the Mixen
// engine and every baseline engine, so that one algorithm definition runs
// unchanged on all of them (the paper evaluates InDegree, PageRank,
// Collaborative Filtering and BFS across five frameworks).
//
// An algorithm is an iterated generalized SpMV over a semiring:
//
//	sum_v = ⊕_{u→v} send(x_u, scale_u)
//	x'_v  = Apply(v, sum_v, x_v)        for every receiver v (in-degree > 0)
//
// Under the Sum ring, ⊕ is addition with identity 0 and send multiplies
// (send = x·scale); under the Min ring, ⊕ is minimum with identity +Inf and
// send adds (send = x+scale, the tropical semiring used by BFS/SSSP).
//
// Engine contract (shared by all engines, matching Mixen's semantics):
//   - nodes with zero in-degree (seeds, isolated) keep their Init values
//     forever; they only ever act as sources;
//   - Apply runs on every receiver each iteration, except that Mixen defers
//     sink nodes to a single Post-Phase evaluation (§4.3), which coincides
//     with the per-iteration result once the algorithm has converged.
package vprog

import "math"

// Ring selects the propagation semiring.
type Ring uint8

const (
	// Sum is the (+, ×) ring used by link analysis (InDegree, PageRank, CF).
	Sum Ring = iota
	// Min is the (min, +) tropical ring used by BFS.
	Min
)

// Identity returns the ⊕-identity of the ring.
func (r Ring) Identity() float64 {
	if r == Min {
		return math.Inf(1)
	}
	return 0
}

// Send computes the propagated value for a source property x and its scale.
func (r Ring) Send(x, scale float64) float64 {
	if r == Min {
		return x + scale
	}
	return x * scale
}

// Combine folds b into a under the ring.
func (r Ring) Combine(a, b float64) float64 {
	if r == Min {
		return math.Min(a, b)
	}
	return a + b
}

// Program describes one algorithm. All node identifiers passed to Program
// methods are ORIGINAL graph ids; engines translate from their internal
// (possibly relabeled) id spaces.
//
// Concurrency: engines call Program methods from multiple worker
// goroutines within one run, always on disjoint nodes — implementations
// must not mutate shared state from Init/Scale/Apply. Converged and
// MaxIter are called from the run's coordinating goroutine only.
type Program interface {
	// Width is the number of float64 lanes per node property (1 for scalar
	// algorithms, K for collaborative filtering's latent vectors).
	Width() int
	// Ring selects the propagation semiring.
	Ring() Ring
	// Init writes node v's initial property into out (len Width).
	Init(v uint32, out []float64)
	// Scale returns the per-source propagation parameter of node u: a
	// multiplier under Sum, an additive offset under Min. Called once per
	// node during engine setup.
	Scale(u uint32) float64
	// Apply computes the new property of node v from the gathered sum and
	// the previous property, writing it to out (which may alias sum). It
	// returns this node's contribution to the convergence delta.
	//
	// Quiescence contract: the return value doubles as a per-node
	// activation signal. A return of exactly 0 asserts out == prev
	// bit-for-bit (the node is quiescent this iteration); any change to
	// the node's property must return a nonzero delta. Engines rely on
	// this to build frontiers — a zero-delta node's neighbours may skip
	// re-reading it — so an implementation that damps its delta below
	// the contract (e.g. rounding tiny changes to 0) silently freezes
	// propagation. Apply must also be a pure function of (v, sum, prev):
	// engines with activity tracking skip Apply entirely for nodes whose
	// gathered sum is unchanged and carry the previous value forward,
	// and Mixen's Post-Phase defers sink evaluation on the same grounds.
	// Width>1 programs (vprog.Batch) OR their lanes: the fused delta is
	// nonzero iff any lane's property changed.
	Apply(v uint32, sum, prev, out []float64) float64
	// Converged reports whether iteration may stop after iter full
	// iterations produced the given total delta.
	Converged(totalDelta float64, iter int) bool
	// MaxIter caps the iteration count regardless of convergence.
	MaxIter() int
}

// Checker is an optional Program extension for programs whose parameters
// can lie outside the domain they are defined on (a NaN damping factor, a
// source past the last node). Engines call it before a run and return its
// error instead of running, so a caller gets the error rather than a
// vector of NaN with a nil error.
type Checker interface {
	Check() error
}

// Check returns p's Check error when p implements Checker, and nil
// otherwise.
func Check(p Program) error {
	if c, ok := p.(Checker); ok {
		return c.Check()
	}
	return nil
}

// MinApplier is an optional Program extension, a declaration with no
// behaviour: a Min-ring program implements it to promise that its Apply
// writes out = min(prev, sum) lane by lane and returns a nonzero delta iff
// that changed the value. Under that promise a value only ever falls, and
// an input that did not change cannot lower it again, so an engine may
// gather by push: start each node from its previous value, fold in only
// the contributions that changed, and Apply only the nodes they lowered.
// BFS and connected components declare it; a Sum-ring program that
// implements it is ignored (see PushesMin).
type MinApplier interface {
	MinApply()
}

// PushesMin reports whether p is a Min-ring program that declares
// MinApplier.
func PushesMin(p Program) bool {
	_, ok := p.(MinApplier)
	return ok && p.Ring() == Min
}

// Result is the outcome of an engine run.
type Result struct {
	// Values holds the final properties in ORIGINAL id order, Width lanes
	// per node.
	Values []float64
	// Iterations is the number of main-loop iterations executed.
	Iterations int
	// Delta is the final convergence delta.
	Delta float64
}

// Value returns lane l of node v from the result.
func (r *Result) Value(v uint32, width, l int) float64 {
	return r.Values[int(v)*width+l]
}
