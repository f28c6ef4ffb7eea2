// Package metrics is the analysistest fixture for the nondeterm analyzer's
// map-order-only level as applied to the shared metrics registry: every
// /metrics byte both daemons serve is rendered there, so a label set emitted
// in map order would make two scrapes of identical state differ.  The wall
// clock stays legal (a registry may time its own scrapes).
package metrics

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// ScrapeAge exercises the wall-clock exemption at this level.
func ScrapeAge(last time.Time) float64 {
	return time.Since(last).Seconds()
}

// EmitUnsorted writes one labelled family by ranging the series map
// directly: label values come out in map order.  Flagged.
func EmitUnsorted(w io.Writer, series map[string]uint64) {
	for label, n := range series { // want `range over map series: iteration order is nondeterministic`
		fmt.Fprintf(w, "requests_total{result=%q} %d\n", label, n)
	}
}

// EmitSorted is the registry's idiom: collect the label values, sort, emit.
func EmitSorted(w io.Writer, series map[string]uint64) {
	labels := make([]string, 0, len(series))
	for label := range series {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Fprintf(w, "requests_total{result=%q} %d\n", label, series[label])
	}
}
