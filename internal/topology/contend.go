package topology

import (
	"fmt"
	"sort"

	"agcm/internal/sim"
)

// Deterministic link contention.
//
// The simulator's ranks free-run on private virtual clocks, so there is no
// global event order during a run and shared busy-until link clocks cannot
// be maintained online without racing on the host scheduler.  Contention is
// therefore resolved the way trace-driven network simulators do it: after
// the run, the message log is sorted into a single deterministic order and
// replayed against per-link busy-until clocks.  Transfers that want the same
// link at the same virtual time serialize; the tie-break is (virtual start
// time, sender rank, message sequence number), which is a total order
// because a sender's sequence numbers are unique.

// Transfer is one off-rank message as logged by the simulator.
type Transfer struct {
	Src, Dst int
	Bytes    int
	// Start is the sender's virtual clock at injection.
	Start float64
	// Seq is the sender-local message sequence number.
	Seq int64
}

// TransfersFromEvents extracts the off-rank message traffic from a run's
// event log (sim.Machine.SetEventLog(true) before Run).  Self-sends never touch
// the wire and are excluded.
func TransfersFromEvents(events [][]sim.Event) []Transfer {
	var out []Transfer
	for src, evs := range events {
		for _, e := range evs {
			if e.Kind != sim.EventSend || e.Peer == src {
				continue
			}
			out = append(out, Transfer{
				Src: src, Dst: e.Peer, Bytes: e.Bytes,
				Start: e.Start, Seq: e.Seq,
			})
		}
	}
	return out
}

// LinkContention describes one link's load after replay.
type LinkContention struct {
	Link int    `json:"link"`
	Name string `json:"name"`
	// Transfers and Bytes count the messages that crossed the link.
	Transfers int   `json:"transfers"`
	Bytes     int64 `json:"bytes"`
	// BusySeconds is the total time the link spent moving bytes: divided
	// by the run's virtual duration it is the link's utilization.
	BusySeconds float64 `json:"busySeconds"`
	// StallSeconds is the total time transfers waited for this link while
	// it was busy with earlier traffic — the congestion the free-running
	// model does not charge.
	StallSeconds float64 `json:"stallSeconds"`
}

// ContentionReport is the result of replaying a run's traffic through the
// network's links with busy-until serialization.
type ContentionReport struct {
	// Transfers replayed (off-rank messages).
	Transfers int `json:"transfers"`
	// TotalStallSeconds sums every transfer's wait for busy links.
	TotalStallSeconds float64 `json:"totalStallSeconds"`
	// MaxStallSeconds is the worst single transfer's wait.
	MaxStallSeconds float64 `json:"maxStallSeconds"`
	// FinishSeconds is the virtual time the last byte left the last link.
	FinishSeconds float64 `json:"finishSeconds"`
	// Links holds per-link load and stall totals, indexed by link id.
	Links []LinkContention `json:"links"`
}

// MostContended returns the n links with the largest stall time, ties broken
// by link id, busiest first.
func (r *ContentionReport) MostContended(n int) []LinkContention {
	out := append([]LinkContention(nil), r.Links...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StallSeconds != out[j].StallSeconds {
			return out[i].StallSeconds > out[j].StallSeconds
		}
		return out[i].Link < out[j].Link
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Contend replays transfers through the network's topology and placement,
// serializing on shared links.  Each transfer occupies every link of its
// dimension-ordered route for its serialization time (wormhole routing: the
// whole path is held while the message drains); a transfer arriving at a
// busy link waits until the link frees.  The replay order — (Start, Src,
// Seq) — is a pure function of the run's virtual times, so the report is
// bit-identical across runs and host schedules.
func (n *Network) Contend(transfers []Transfer) (*ContentionReport, error) {
	sorted := append([]Transfer(nil), transfers...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})

	rep := &ContentionReport{
		Transfers: len(sorted),
		Links:     make([]LinkContention, n.topo.NumLinks()),
	}
	for l := range rep.Links {
		rep.Links[l] = LinkContention{Link: l, Name: n.topo.LinkName(l)}
	}

	busyUntil := make([]float64, n.topo.NumLinks())
	var path []int
	for _, t := range sorted {
		if ranks := len(n.src); t.Src < 0 || t.Src >= ranks || t.Dst < 0 || t.Dst >= ranks {
			return nil, fmt.Errorf("topology: transfer %d->%d outside %d ranks", t.Src, t.Dst, ranks)
		}
		path = n.topo.Route(n.place.Node(t.Src), n.place.Node(t.Dst), path[:0])
		if len(path) == 0 {
			continue
		}
		ser := float64(t.Bytes) / n.bw

		// The wormhole path is held end to end: the transfer starts when
		// the last of its links frees, and every link is busy until the
		// payload has drained.
		start := t.Start
		for _, l := range path {
			if busyUntil[l] > start {
				start = busyUntil[l]
			}
		}
		stall := start - t.Start
		end := start + ser
		for _, l := range path {
			lc := &rep.Links[l]
			lc.Transfers++
			lc.Bytes += int64(t.Bytes)
			lc.BusySeconds += ser
			lc.StallSeconds += stall
			busyUntil[l] = end
		}
		rep.TotalStallSeconds += stall
		if stall > rep.MaxStallSeconds {
			rep.MaxStallSeconds = stall
		}
		if end > rep.FinishSeconds {
			rep.FinishSeconds = end
		}
	}
	return rep, nil
}
