package workload

// Recorded-trace format: a schedule serialized as a header line plus one
// JSON line per request, in arrival order.  The encoding is canonical —
// WriteTrace of a given schedule always produces the same bytes, and
// ReadTrace(WriteTrace(s)) round-trips both the schedule and, re-encoded,
// the bytes — so a trace file is a content-addressable regression input: a
// live run recorded once replays forever, and Hash pins it in reports.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// traceFormat is the header's format tag; bump on any schema change so old
// readers fail loudly on new traces and vice versa.
const traceFormat = "agcm-trace/2"

// traceHeader is the first line of a trace: the format tag, the canonical
// spec the schedule came from, and the request count (a cheap truncation
// check before the last line is reached).
type traceHeader struct {
	Format   string          `json:"format"`
	Spec     json.RawMessage `json:"spec"`
	Requests int             `json:"requests"`
}

// WriteTrace writes the schedule in trace format.  The output is a pure
// function of the schedule.
func WriteTrace(w io.Writer, s *Schedule) error {
	specJSON, err := s.Spec.CanonicalJSON()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	head, err := json.Marshal(traceHeader{
		Format:   traceFormat,
		Spec:     specJSON,
		Requests: len(s.Requests),
	})
	if err != nil {
		return fmt.Errorf("workload: encoding trace header: %w", err)
	}
	bw.Write(head)
	bw.WriteByte('\n')
	for i := range s.Requests {
		line, err := json.Marshal(&s.Requests[i])
		if err != nil {
			return fmt.Errorf("workload: encoding trace request %d: %w", i, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadTrace parses a trace back into a schedule, validating the format tag,
// the spec, the request count, and that requests arrive in sequence order
// with non-decreasing arrival times.
func ReadTrace(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: reading trace header: %w", err)
		}
		return nil, fmt.Errorf("workload: empty trace")
	}
	var head traceHeader
	if err := decodeStrict(sc.Bytes(), &head); err != nil {
		return nil, fmt.Errorf("workload: decoding trace header: %w", err)
	}
	if head.Format != traceFormat {
		return nil, fmt.Errorf("workload: trace format %q, want %q", head.Format, traceFormat)
	}
	spec, err := ParseSpec(head.Spec)
	if err != nil {
		return nil, err
	}
	cs, err := spec.WithDefaults()
	if err != nil {
		return nil, err
	}
	sched := &Schedule{Spec: cs, Requests: make([]Request, 0, head.Requests)}
	var prevAt int64
	for sc.Scan() {
		var req Request
		if err := decodeStrict(sc.Bytes(), &req); err != nil {
			return nil, fmt.Errorf("workload: decoding trace request %d: %w", len(sched.Requests), err)
		}
		if req.Seq != len(sched.Requests) {
			return nil, fmt.Errorf("workload: trace request out of sequence: got seq %d at position %d", req.Seq, len(sched.Requests))
		}
		if req.AtUS < prevAt {
			return nil, fmt.Errorf("workload: trace request %d arrives before its predecessor", req.Seq)
		}
		prevAt = req.AtUS
		sched.Requests = append(sched.Requests, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if len(sched.Requests) != head.Requests {
		return nil, fmt.Errorf("workload: trace truncated: header says %d requests, read %d", head.Requests, len(sched.Requests))
	}
	return sched, nil
}

// decodeStrict unmarshals one trace line, rejecting unknown fields and
// trailing data.
func decodeStrict(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// Hash returns the SHA-256 of the schedule's trace encoding as lowercase
// hex: the content address of the exact request sequence.  Two runs that
// report equal hashes replayed byte-identical workloads.
func (s *Schedule) Hash() (string, error) {
	h := sha256.New()
	if err := WriteTrace(h, s); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
