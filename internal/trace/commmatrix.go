package trace

import (
	"encoding/json"
	"sort"

	"agcm/internal/sim"
)

// CommMatrix is the rank-by-rank communication matrix of a run: who sent how
// much to whom.  It is collected from the simulator's event log, so it works
// on any machine — flat or topology-modelled — at the cost of enabling
// sim.Machine.EnableEventLog before Run.
type CommMatrix struct {
	// Ranks is the world size; Msgs and Bytes are Ranks*Ranks row-major
	// (sender-major) counters.  Self-sends land on the diagonal.
	Ranks int     `json:"ranks"`
	Msgs  []int64 `json:"msgs"`
	Bytes []int64 `json:"bytes"`
}

// NewCommMatrix collects the matrix from a run's event log.  The result is
// nil if the log was not enabled.
func NewCommMatrix(res *sim.Result) *CommMatrix {
	if res.Events == nil {
		return nil
	}
	n := len(res.Clocks)
	m := &CommMatrix{
		Ranks: n,
		Msgs:  make([]int64, n*n),
		Bytes: make([]int64, n*n),
	}
	for src, evs := range res.Events {
		for _, e := range evs {
			if e.Kind != sim.EventSend {
				continue
			}
			i := src*n + e.Peer
			m.Msgs[i]++
			m.Bytes[i] += int64(e.Bytes)
		}
	}
	return m
}

// At returns the (messages, bytes) sent from src to dst.
func (m *CommMatrix) At(src, dst int) (msgs, bytes int64) {
	i := src*m.Ranks + dst
	return m.Msgs[i], m.Bytes[i]
}

// TotalBytes sums the whole matrix.
func (m *CommMatrix) TotalBytes() int64 {
	var t int64
	for _, b := range m.Bytes {
		t += b
	}
	return t
}

// JSON renders the matrix for offline analysis.
func (m *CommMatrix) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// CommPair is one sender/receiver pair's traffic.
type CommPair struct {
	Src, Dst    int
	Msgs, Bytes int64
}

// HottestPairs returns the n off-diagonal pairs carrying the most bytes,
// heaviest first, ties broken by (src, dst) for reproducible output.
func (m *CommMatrix) HottestPairs(n int) []CommPair {
	var pairs []CommPair
	for s := 0; s < m.Ranks; s++ {
		for d := 0; d < m.Ranks; d++ {
			if s == d {
				continue
			}
			if msgs, bytes := m.At(s, d); msgs > 0 {
				pairs = append(pairs, CommPair{Src: s, Dst: d, Msgs: msgs, Bytes: bytes})
			}
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].Bytes != pairs[j].Bytes {
			return pairs[i].Bytes > pairs[j].Bytes
		}
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	if n < len(pairs) {
		pairs = pairs[:n]
	}
	return pairs
}
