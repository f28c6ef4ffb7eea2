package sim

// Route-aware network costs: an optional extension of the flat CostModel
// that lets the in-flight time of a message depend on *where* the endpoints
// live — which interconnect links the route crosses, how many hops it takes,
// and what the sender's injection port is already busy with.  Package
// topology provides the implementation (grid and switch link models).
//
// Determinism contract: RouteSeconds is called concurrently from every
// rank's goroutine, so an implementation may keep mutable state only if that
// state is sharded by src (each shard touched exclusively by the goroutine
// running rank src).  Any cross-rank state would make the result depend on
// the Go scheduler and break the simulator's bit-reproducibility guarantee.

// RouteModel prices a message's in-flight time with knowledge of its
// endpoints and send time.  src and dst are world ranks (never equal:
// self-sends bypass the wire), bytes is the payload size used for timing,
// and now is the sender's virtual clock at injection (after the send
// overhead).  The returned value replaces CostModel.NetworkSeconds in the
// arrival-time computation; sender-side overhead accounting is unchanged.
type RouteModel interface {
	RouteSeconds(src, dst, bytes int, now float64) float64
}

// SetRouteModel installs a route-aware network model consulted for every
// off-rank message of every later Run in place of the per-rank
// CostModel.NetworkSeconds.  Nil means flat: every message costs its
// sender's CostModel.NetworkSeconds, as on a machine with no topology.
// Overheads, fault injection and event logging are unaffected.
func (m *Machine) SetRouteModel(rm RouteModel) { m.routes = rm }
