package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"agcm/internal/sim"
)

// chromeEvent is one record of the Chrome trace-event format (the JSON
// array flavour), loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ExportChromeTrace writes the run's event log as a Chrome trace-event JSON
// array: one timeline row per rank, named spans for the accounted phases,
// and flow arrows connecting each send to its receive.  The run must have
// been executed with Machine.SetEventLog(true).
func ExportChromeTrace(w io.Writer, res *sim.Result) error {
	if res.Events == nil {
		return fmt.Errorf("trace: run has no event log (call Machine.SetEventLog(true) before Run)")
	}
	us := func(seconds float64) float64 { return seconds * 1e6 }
	var out []chromeEvent
	// Rank name metadata.
	for rank := range res.Events {
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 0, TID: rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
		})
	}
	for rank, events := range res.Events {
		for _, e := range events {
			switch e.Kind {
			case sim.EventSpan:
				out = append(out, chromeEvent{
					Name: e.Name, Cat: "span", Phase: "X",
					TS: us(e.Start), Dur: us(e.End - e.Start),
					PID: 0, TID: rank,
				})
			case sim.EventSend:
				out = append(out, chromeEvent{
					Name: "msg", Cat: "comm", Phase: "s",
					TS: us(e.Start), PID: 0, TID: rank,
					ID:   fmt.Sprintf("%d.%d", rank, e.Seq),
					Args: map[string]any{"bytes": e.Bytes, "dst": e.Peer},
				})
			case sim.EventRecv:
				// The wait interval, if the message made the rank idle.
				if e.End > e.Start {
					out = append(out, chromeEvent{
						Name: "wait", Cat: "wait", Phase: "X",
						TS: us(e.Start), Dur: us(e.End - e.Start),
						PID: 0, TID: rank,
					})
				}
				out = append(out, chromeEvent{
					Name: "msg", Cat: "comm", Phase: "f", BP: "e",
					TS: us(e.End), PID: 0, TID: rank,
					ID:   fmt.Sprintf("%d.%d", e.Peer, e.Seq),
					Args: map[string]any{"bytes": e.Bytes, "src": e.Peer},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
