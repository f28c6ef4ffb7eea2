package sim

// Event logging: an optional per-rank record of timed spans and messages,
// cheap enough to leave on for analysis runs and exportable to the Chrome
// trace-event format by the trace package.

// EventKind distinguishes the logged record types.
type EventKind int

const (
	// EventSpan is a phase's interval from Proc.Account.
	EventSpan EventKind = iota
	// EventSend marks a message leaving a rank (Start = send time).
	EventSend
	// EventRecv marks a message being consumed (Start = receive
	// completion time, End - Start = the wait it caused, if any).
	EventRecv
)

// Event is one logged record on one rank's timeline.
type Event struct {
	Kind EventKind
	// Name is the span's phase name, or "send"/"recv" for messages.
	Name string
	// Start and End are virtual times in seconds (End == Start for
	// instantaneous events).
	Start, End float64
	// Peer is the destination (sends) or source (receives) rank.
	Peer int
	// Bytes is the message payload size.
	Bytes int
	// Seq links a send event to its receive event: the sender's
	// (rank, Seq) pair is globally unique.
	Seq int64
}

// SetEventLog turns event recording on or off for every later Run.  The log
// costs one slice append per span and per message.
func (m *Machine) SetEventLog(on bool) { m.logEvents = on }

func (p *Proc) logSpan(ph Phase, start, end float64) {
	if !p.machine.logEvents {
		return
	}
	p.events = append(p.events, Event{
		Kind: EventSpan, Name: ph.String(), Start: start, End: end,
	})
}

func (p *Proc) logSend(dst, bytes int, at float64, seq int64) {
	if !p.machine.logEvents {
		return
	}
	p.events = append(p.events, Event{
		Kind: EventSend, Name: "send", Start: at, End: at,
		Peer: dst, Bytes: bytes, Seq: seq,
	})
}

func (p *Proc) logRecv(src, bytes int, waitedFrom, at float64, seq int64) {
	if !p.machine.logEvents {
		return
	}
	p.events = append(p.events, Event{
		Kind: EventRecv, Name: "recv", Start: waitedFrom, End: at,
		Peer: src, Bytes: bytes, Seq: seq,
	})
}
