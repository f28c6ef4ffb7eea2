package server

import (
	"fmt"
	"net/http"
	"strings"

	"agcm/internal/core"
	"agcm/internal/frame"
)

// The daemon's canonical result representation is a frame.Frame of type
// frame.TypeResponse holding the exact JSON response body under the
// frame's CRC.  The caches (memory and disk) hold that one byte string per
// key, and a hit of either content type is a single Write of stored bytes:
// frame clients (Accept: application/x-agcm-frame) receive the whole frame,
// checksum included; JSON clients receive the section verbatim, so a
// restarted daemon replaying frames from the disk tier serves bodies that
// are byte-identical to what the original process produced.
//
// The body's tag is 1 and must stay 1: -cache-dirs hold frames from builds
// that sealed further sections beside it, and those serve unchanged for as
// long as the body is found under this tag.
const respSecJSON = 1

// FrameContentType is the content-negotiation token for raw response
// frames: requests whose Accept header includes it receive the frame
// itself instead of the embedded JSON body.
const FrameContentType = "application/x-agcm-frame"

// wantsFrame reports whether the request negotiated the raw-frame form.
func wantsFrame(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), FrameContentType)
}

// encodeResponseFrame renders a finished run as the canonical response
// frame: responseJSON's bytes, sealed.
func encodeResponseFrame(key string, canonical []byte, steps int, rep *core.Report) ([]byte, error) {
	jsonBody, err := responseJSON(key, canonical, steps, rep)
	if err != nil {
		return nil, err
	}
	var b frame.Builder
	b.AddSection(respSecJSON, jsonBody)
	return b.Finish(frame.TypeResponse)
}

// JSONBody returns the embedded JSON response body of a response frame —
// the bytes a JSON client receives — as a zero-copy subslice.
func JSONBody(frameBytes []byte) ([]byte, error) {
	f, err := frame.Parse(frameBytes)
	if err != nil {
		return nil, err
	}
	sec, ok := f.Section(respSecJSON)
	if !ok {
		return nil, fmt.Errorf("server: response frame has no JSON section")
	}
	return sec, nil
}

// writeNegotiated serves a cached response frame: the raw frame to clients
// that negotiated it, the embedded JSON section otherwise.  Either way the
// reply is exactly one Write of stored bytes — nothing is re-marshaled on
// a hit.
func writeNegotiated(w http.ResponseWriter, r *http.Request, status int, frameBytes []byte) {
	if wantsFrame(r) {
		w.Header()["Content-Type"] = frameContentType
		w.WriteHeader(status)
		w.Write(frameBytes)
		return
	}
	body, err := JSONBody(frameBytes)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody("cached frame corrupt: "+err.Error()))
		return
	}
	writeJSON(w, status, body)
}
