package workload

// The schedule's canonical encoding: a header line (format tag, canonical
// spec, request count) and then one JSON line per request, in arrival
// order.  It exists to be digested: Hash is the content address of the
// exact request sequence.  Nothing reads it back — the spec is the
// replayable artifact, and Generate re-expands it — but its bytes must never
// change, or every recorded schedule_sha256 stops comparing.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
)

// traceFormat is the header's format tag, kept from when the encoding was
// also a file format so that the digest stays put.
const traceFormat = "agcm-trace/2"

// traceHeader is the encoding's first line.
type traceHeader struct {
	Format   string          `json:"format"`
	Spec     json.RawMessage `json:"spec"`
	Requests int             `json:"requests"`
}

// writeTrace writes the schedule's canonical encoding, a pure function of
// the schedule.
func writeTrace(w io.Writer, s *Schedule) error {
	specJSON, err := s.Spec.CanonicalJSON()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w) // each value is json.Marshal's bytes plus '\n'
	if err := enc.Encode(traceHeader{Format: traceFormat, Spec: specJSON, Requests: len(s.Requests)}); err != nil {
		return err
	}
	for i := range s.Requests {
		if err := enc.Encode(&s.Requests[i]); err != nil {
			return err
		}
	}
	return nil
}

// Hash returns the SHA-256 of the schedule's canonical encoding as
// lowercase hex.  Two runs that report equal hashes dispatched
// byte-identical workloads.
func (s *Schedule) Hash() (string, error) {
	h := sha256.New()
	if err := writeTrace(h, s); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
