package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"agcm/internal/core"
)

// SLOHeader is the request/response header carrying the SLO class between
// gateway and backends.
const SLOHeader = "X-Agcm-SLO"

// sloKey is SLOHeader in canonical form: indexing a header map with it
// skips the per-call canonicalization Header.Get does for a key that is
// not canonical already.
var sloKey = http.CanonicalHeaderKey(SLOHeader)

// envelope is the POST /v1/run body — the one struct in the repository that
// knows the wire format.  Unknown fields are rejected at both levels: here
// and inside the canonical config.
type envelope struct {
	// Config is a canonical config object (see core.ConfigFromCanonicalJSON).
	Config json.RawMessage `json:"config"`
	// Steps is the number of measured steps (default 1).
	Steps int `json:"steps"`
	// SLO is the service-level class: "interactive" or "batch" (default).
	// The X-Agcm-SLO request header is the fallback when the body leaves it
	// empty, so a gateway can stamp the class without rewriting bodies.
	SLO string `json:"slo"`
	// TimeoutMS lowers the server's per-job execution budget.
	TimeoutMS int `json:"timeout_ms"`
}

// Request is a decoded and validated POST /v1/run request.
type Request struct {
	// Config is the simulation to run and Canonical its canonical encoding
	// (echoed in the response body).
	Config    core.Config
	Canonical []byte
	// Steps is the number of measured steps, defaulted and non-negative.
	Steps int
	// Class is the resolved SLO class.
	Class SLOClass
	// TimeoutMS is the client's execution budget; 0 or less means none.
	TimeoutMS int
	// Key is the result-cache and routing address: JobKeyFor(Config, Steps).
	Key string
	// bodySLO is the body's own slo field, "" when the header decided the
	// class: a Memo hit resolves it against that hit's header.
	bodySLO string
}

// DecodeRequest reads one POST /v1/run body, both daemons' single decoder:
// agcmd admits what it returns and agcmgw routes on it, so garbage is
// rejected at whichever edge sees it first and the job key exists before any
// backend is touched.  Every error is the client's (a 400).  header supplies
// the SLOHeader fallback.
func DecodeRequest(body io.Reader, header http.Header) (*Request, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var env envelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("bad request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("bad request: trailing data after the request object")
	}
	if len(env.Config) == 0 {
		return nil, errors.New("missing config")
	}
	cfg, err := core.ConfigFromCanonicalJSON(env.Config)
	if err != nil {
		return nil, err
	}
	req := &Request{Config: cfg, Steps: env.Steps, TimeoutMS: env.TimeoutMS, bodySLO: env.SLO}
	if req.Steps == 0 {
		req.Steps = 1
	}
	if req.Steps < 0 {
		return nil, fmt.Errorf("steps %d out of range", req.Steps)
	}
	if req.Class, err = classFor(env.SLO, header); err != nil {
		return nil, err
	}
	// Canonicalize once: validates the config, yields the echoed form and
	// the cache address.
	if req.Canonical, err = cfg.CanonicalJSON(); err != nil {
		return nil, err
	}
	req.Key = jobKey(req.Canonical, req.Steps)
	return req, nil
}

// classFor resolves a request's SLO class: the body's slo field, or the
// SLOHeader fallback when the body leaves it empty.
func classFor(bodySLO string, header http.Header) (SLOClass, error) {
	slo := bodySLO
	if slo == "" {
		if v := header[sloKey]; len(v) > 0 {
			slo = v[0]
		}
	}
	c, ok := ClassByName(slo)
	if !ok {
		return 0, fmt.Errorf("unknown slo class %q", slo)
	}
	return c, nil
}

// JobKeyFor derives the cache key for a config and step count: the config's
// content address extended with the one run parameter outside the config.
func JobKeyFor(cfg core.Config, steps int) (string, error) {
	canonical, err := cfg.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return jobKey(canonical, steps), nil
}

// jobKey is JobKeyFor over an already-canonical config: the hex SHA-256 of
// "ConfigKey:steps", where ConfigKey (core.Config.ConfigKey) is the hex
// SHA-256 of the canonical bytes.  Both digests are hex-encoded into stack
// arrays, so the returned string is the one allocation.
func jobKey(canonical []byte, steps int) string {
	ck := sha256.Sum256(canonical)
	var in [2*sha256.Size + 1 + 20]byte // hex ConfigKey, ':', a signed 64-bit integer
	hex.Encode(in[:], ck[:])
	in[2*sha256.Size] = ':'
	sum := sha256.Sum256(strconv.AppendInt(in[:2*sha256.Size+1], int64(steps), 10))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
