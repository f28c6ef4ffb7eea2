// Package trace renders performance-analysis views of a simulated run:
// per-rank utilization profiles and an ASCII timeline in the spirit of the
// tools the paper's authors used to find the filtering bottleneck.  It
// consumes the per-phase accounts and communication counters the sim
// package collects, so tracing costs nothing extra at run time.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"agcm/internal/sim"
)

// Profile summarizes one rank's time breakdown over a run.
type Profile struct {
	Rank int
	// Busy holds the seconds accounted to each phase.
	Busy [sim.NumPhases]float64
	// Wait is the time blocked on unarrived messages.
	Wait float64
	// Clock is the rank's final virtual time.
	Clock float64
	// Messages and Bytes are the rank's send-side traffic.
	Messages int64
	Bytes    int64
}

// Other returns clock time not covered by accounted phases or waiting:
// untimed compute and send/recv overheads outside accounted sections.
func (p Profile) Other() float64 {
	t := p.Clock - p.Wait
	for _, busy := range p.Busy { // in phase order: float subtraction is not associative
		t -= busy
	}
	if t < 0 {
		return 0
	}
	return t
}

// Profiles extracts one Profile per rank from a sim result.
//
// Note: the per-phase accounts include any wait time spent inside their
// accounted sections, so Wait (measured at Recv) can overlap them; Other
// therefore underestimates when phases wait internally.  For the AGCM
// the step structure puts almost all waiting inside accounted sections,
// which is exactly what the utilization view should show.
func Profiles(res *sim.Result) []Profile {
	n := len(res.Clocks)
	out := make([]Profile, n)
	for r := 0; r < n; r++ {
		out[r] = Profile{
			Rank:     r,
			Wait:     res.WaitSeconds[r],
			Clock:    res.Clocks[r],
			Messages: res.MessagesSent[r],
			Bytes:    res.BytesSent[r],
		}
		for ph, acct := range res.Accounts {
			if acct != nil {
				out[r].Busy[ph] = acct[r]
			}
		}
	}
	return out
}

// UtilizationTable renders a fixed-width per-rank breakdown.  With more
// than maxRows ranks it shows the first few, the most and least loaded for
// the given phase, and machine-wide totals.
func UtilizationTable(res *sim.Result, ph sim.Phase, maxRows int) string {
	profiles := Profiles(res)
	if maxRows < 3 {
		maxRows = 3
	}
	phases := res.Phases()
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "rank")
	for _, col := range phases {
		fmt.Fprintf(&b, "  %12s", col)
	}
	fmt.Fprintf(&b, "  %12s  %12s  %10s\n", "wait", "clock", "msgs")

	writeRow := func(p Profile) {
		fmt.Fprintf(&b, "%-6d", p.Rank)
		for _, col := range phases {
			fmt.Fprintf(&b, "  %12.4f", p.Busy[col])
		}
		fmt.Fprintf(&b, "  %12.4f  %12.4f  %10d\n", p.Wait, p.Clock, p.Messages)
	}

	show := profiles
	if len(profiles) > maxRows {
		// First rows plus extremes of the chosen phase.
		sorted := append([]Profile(nil), profiles...)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Busy[ph] > sorted[j].Busy[ph]
		})
		seen := map[int]bool{}
		show = nil
		for _, p := range append(profiles[:maxRows-2],
			sorted[0], sorted[len(sorted)-1]) {
			if !seen[p.Rank] {
				show = append(show, p)
				seen[p.Rank] = true
			}
		}
		sort.Slice(show, func(i, j int) bool { return show[i].Rank < show[j].Rank })
	}
	for _, p := range show {
		writeRow(p)
	}
	if len(profiles) > len(show) {
		fmt.Fprintf(&b, "... (%d of %d ranks shown)\n", len(show), len(profiles))
	}
	return b.String()
}

// Gantt renders an ASCII utilization bar per rank: each bar divides the
// rank's clock into its phase shares (one letter per phase, see symbols)
// plus waiting ('.') and other ('-').  width is the bar length in cells.
// It is a share view, not an event timeline: segment order within the bar
// is the phases' (alphabetical) order, not chronological.
func Gantt(res *sim.Result, width int) string {
	if width < 10 {
		width = 10
	}
	profiles := Profiles(res)
	maxClock := res.MaxClock()
	if maxClock == 0 {
		return ""
	}
	phases := res.Phases()
	var b strings.Builder
	fmt.Fprintf(&b, "one cell = %.4g s; ", maxClock/float64(width))
	for _, ph := range phases {
		fmt.Fprintf(&b, "%c=%s ", symbols[ph], ph)
	}
	b.WriteString(".=wait -=other\n")
	for _, p := range profiles {
		fmt.Fprintf(&b, "%4d |", p.Rank)
		cells := 0
		total := int(p.Clock / maxClock * float64(width))
		emit := func(ch byte, seconds float64) {
			n := int(seconds / maxClock * float64(width))
			for i := 0; i < n && cells < total; i++ {
				b.WriteByte(ch)
				cells++
			}
		}
		for _, ph := range phases {
			emit(symbols[ph], p.Busy[ph])
		}
		emit('.', p.Wait)
		for cells < total {
			b.WriteByte('-')
			cells++
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// symbols is each phase's bar character.
var symbols = [sim.NumPhases]byte{sim.DynamicsComm: 'd', sim.DynamicsFD: 'y', sim.Filter: 'f',
	sim.Misc: 'm', sim.Physics: 'p', sim.Sync: 's'}

// Summary renders machine-wide aggregates: total busy share per phase,
// aggregate wait share, and traffic.
func Summary(res *sim.Result) string {
	profiles := Profiles(res)
	var clockSum, waitSum float64
	var msgs, bytes int64
	var busy [sim.NumPhases]float64
	for _, p := range profiles {
		clockSum += p.Clock
		waitSum += p.Wait
		msgs += p.Messages
		bytes += p.Bytes
		for ph, v := range p.Busy {
			busy[ph] += v
		}
	}
	if clockSum == 0 {
		return "empty run\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ranks %d, critical path %.4f s\n", len(profiles), res.MaxClock())
	for _, ph := range res.Phases() {
		fmt.Fprintf(&b, "  %-16s %6.1f%% of aggregate time\n", ph, 100*busy[ph]/clockSum)
	}
	fmt.Fprintf(&b, "  %-16s %6.1f%% of aggregate time\n", "wait", 100*waitSum/clockSum)
	fmt.Fprintf(&b, "  traffic: %d messages, %.2f MB\n", msgs, float64(bytes)/1e6)
	return b.String()
}
