// Package collective is the analysistest fixture for the collective
// analyzer: collective operations control-dependent on rank-varying
// conditions.
package collective

import (
	"agcm/internal/comm"
	"agcm/internal/sim"
)

// RootOnlyBarrier is the classic deadlock: only rank 0 enters the barrier.
func RootOnlyBarrier(c *comm.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want `collective Comm\.Barrier is control-dependent on the rank-varying condition`
	}
}

// DerivedRank taints variables computed from Rank().
func DerivedRank(c *comm.Comm, data []float64) []float64 {
	me := c.Rank()
	north := me + 1
	if north < c.Size() {
		return c.BcastInto(0, data) // want `collective Comm\.BcastInto is control-dependent on the rank-varying condition`
	}
	return data
}

// ElseBranch is rank-varying on both arms.
func ElseBranch(c *comm.Comm, data []float64) []float64 {
	if c.Rank() == 0 {
		return data
	} else {
		return c.AllgathervTree(data)[0] // want `collective Comm\.AllgathervTree is control-dependent`
	}
}

// ProcRank taints through sim.Proc.Rank too.
func ProcRank(p *sim.Proc, c *comm.Comm) {
	for i := 0; i < p.Rank(); i++ {
		c.Barrier() // want `collective Comm\.Barrier is control-dependent`
	}
}

// SwitchOnRank flags collectives under rank-varying switch cases.
func SwitchOnRank(c *comm.Comm, data []float64) {
	switch c.Rank() {
	case 0:
		c.GathervInto(0, data, nil) // want `collective Comm\.GathervInto is control-dependent`
	default:
	}
}

// RootOnlyAllreduce is the production shape of the mistake: the *Into
// collectives are the ones the model actually runs.
func RootOnlyAllreduce(c *comm.Comm, data, out []float64) []float64 {
	if c.Rank() == 0 {
		out = c.AllreduceInto(data, out, comm.SumOp) // want `collective Comm\.AllreduceInto is control-dependent on the rank-varying condition`
	}
	return out
}

// UnconditionalCollectives are the correct shape: every rank calls them.
func UnconditionalCollectives(c *comm.Comm, data, out []float64, parts [][]float64) []float64 {
	c.Barrier()
	out = c.AllreduceInto(data, out, comm.SumOp)
	// Rank-dependent *arguments* are fine — every rank still enters.
	parts = c.GathervInto(c.Rank()%2, out, parts)
	parts = c.AlltoallvInto(parts, parts)
	return c.ScattervInto(0, parts, out)
}

// ReplicatedCondition branches on data that is identical on every rank:
// not rank-derived, so not flagged.
func ReplicatedCondition(c *comm.Comm, steps int, data []float64) []float64 {
	if steps > 10 {
		data = c.BcastInto(0, data)
	}
	return data
}

// RankDependentPointToPoint is legal: SendCopy/RecvInto are pairwise, not
// collective.
func RankDependentPointToPoint(c *comm.Comm, data []float64) []float64 {
	if c.Rank() == 0 {
		c.SendCopy(1, 5, data)
		return data
	}
	if c.Rank() == 1 {
		return c.RecvInto(0, 5, data)
	}
	return data
}

// AgreedBranch uses the escape hatch: the guard is rank-varying to the
// analyzer but all ranks provably agree (size is replicated).
func AgreedBranch(c *comm.Comm, data []float64) []float64 {
	if c.Rank() < c.Size() { // always true on every rank
		return c.BcastInto(0, data) //lint:allow collective every rank satisfies rank < size, all ranks enter
	}
	return data
}
