package trace

import (
	"fmt"
	"sort"
	"strings"

	"agcm/internal/topology"
)

// LinkUtilizationTable renders the busiest links of a routed run from its
// contention replay: per-link traffic, utilization (busy time over the run's
// critical path) and the stall time each link induced.  maxRows bounds the
// listing; links are ordered by bytes carried, most first, with ties broken
// by link id.
func LinkUtilizationTable(rep *topology.ContentionReport, duration float64, maxRows int) string {
	if maxRows < 1 {
		maxRows = 1
	}
	links := rep.Links
	sorted := append([]topology.LinkContention(nil), links...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Bytes != sorted[j].Bytes {
			return sorted[i].Bytes > sorted[j].Bytes
		}
		return sorted[i].Link < sorted[j].Link
	})

	var used int
	var busySum float64
	for _, l := range links {
		if l.Transfers > 0 {
			used++
		}
		busySum += l.BusySeconds
	}

	var b strings.Builder
	fmt.Fprintf(&b, "links: %d total, %d carried traffic", len(links), used)
	if duration > 0 && len(links) > 0 {
		fmt.Fprintf(&b, ", mean utilization %.1f%%", 100*busySum/(duration*float64(len(links))))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s %10s %12s %8s %10s\n", "link", "msgs", "kB", "busy%", "stall ms")
	shown := 0
	for _, l := range sorted {
		if shown >= maxRows || l.Transfers == 0 {
			break
		}
		util := 0.0
		if duration > 0 {
			util = 100 * l.BusySeconds / duration
		}
		fmt.Fprintf(&b, "%-22s %10d %12.1f %8.2f %10.3f\n",
			l.Name, l.Transfers, float64(l.Bytes)/1e3, util, 1e3*l.StallSeconds)
		shown++
	}
	if used > shown {
		fmt.Fprintf(&b, "... (%d of %d active links shown)\n", shown, used)
	}
	fmt.Fprintf(&b, "contention replay: %d transfers, total stall %.3f ms, max %.3f ms\n",
		rep.Transfers, 1e3*rep.TotalStallSeconds, 1e3*rep.MaxStallSeconds)
	return b.String()
}
