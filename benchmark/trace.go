package main

// The traced run's recorder.  Spans are taken from the benchmark's own
// files, around the calls into each layer: load.request (the client) ⊃
// gateway.handle (an http.Handler around gateway.Handler()) ⊃ server.handle
// (a handler around server.Handler()) ⊃ core.run (a server.Options.Runner
// calling core.RunContext).  The program under test never sees the span
// header: the gateway builds its backend request from scratch, so the link
// rides the request context from the gateway wrapper to a RoundTripper
// wrapper that stamps it on the outgoing attempt.  Spans stay in memory and
// are written once, as a Chrome trace, when the benchmark ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agcm/internal/core"
	"agcm/internal/server"
)

const spanHeader = "X-Agcmbench-Span"

// maxSpansWritten caps the Chrome trace file (to within one request's
// spans); every span still counts in the statistics.
const maxSpansWritten = 20000

type span struct {
	ID, Parent, Request int64
	Name                string
	Start, End          int64 // nanoseconds since the tracer's epoch
}

// runInfo is what a core.run span keeps of its report: the exact simulated
// statistics and the message count the host time is divided by.
type runInfo struct {
	wallS          float64
	messages       int64
	virtualSPerDay float64
	filterShareDyn float64
	msgsPerStep    float64
	bytesPerStep   float64
	maxWaitShare   float64
}

// link is the content of the span header: the request, the span that caused
// the next one, and the client's dense index of the job key.
type link struct {
	request, parent int64
	key             int
}

func (l link) String() string {
	b := make([]byte, 0, 32)
	b = strconv.AppendInt(b, l.request, 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, l.parent, 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(l.key), 10)
	return string(b)
}

func parseLink(s string) (link, bool) {
	a, rest, ok1 := strings.Cut(s, "-")
	b, c, ok2 := strings.Cut(rest, "-")
	if !ok1 || !ok2 {
		return link{}, false
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	par, err2 := strconv.ParseInt(b, 10, 64)
	key, err3 := strconv.Atoi(c)
	if err1 != nil || err2 != nil || err3 != nil {
		return link{}, false
	}
	return link{req, par, key}, true
}

type linkKey struct{}

type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	runs  map[int64]runInfo // by core.run span ID

	// keyIndex maps a job key to the client's dense index; waiting[i] holds
	// the server.handle span (and its request) currently waiting on key i's
	// run, packed as request<<32 | span.  Both are sized once by bindKeys.
	keyIndex map[string]int
	waiting  []atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), runs: make(map[int64]runInfo)}
}

// bindKeys tells the tracer which job keys the client will ask for, so the
// Runner wrapper can find the server.handle span its run belongs to.
func (tr *tracer) bindKeys(jobKeys []string) {
	tr.keyIndex = make(map[string]int, len(jobKeys))
	for i, k := range jobKeys {
		tr.keyIndex[k] = i
	}
	tr.waiting = make([]atomic.Int64, len(jobKeys))
}

func (tr *tracer) now() int64   { return int64(time.Since(tr.epoch)) }
func (tr *tracer) newID() int64 { return tr.next.Add(1) }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func (tr *tracer) addRun(id int64, info runInfo) {
	tr.mu.Lock()
	tr.runs[id] = info
	tr.mu.Unlock()
}

// run executes one simulation under a core.run span.
func (tr *tracer) run(ctx context.Context, cfg core.Config, steps int, parent, request int64) (*core.Report, error) {
	id := tr.newID()
	start := tr.now()
	rep, err := core.RunContext(ctx, cfg, steps)
	end := tr.now()
	tr.add(span{ID: id, Parent: parent, Request: request, Name: "core.run", Start: start, End: end})
	if err == nil {
		tr.addRun(id, digest(rep, float64(end-start)/1e9))
	}
	return rep, err
}

func digest(rep *core.Report, wallS float64) runInfo {
	info := runInfo{
		wallS:          wallS,
		messages:       rep.Raw.TotalMessages(),
		virtualSPerDay: rep.Total,
		msgsPerStep:    rep.MessagesPerStep,
		bytesPerStep:   rep.BytesPerStep,
		maxWaitShare:   rep.MaxWaitShare,
	}
	if rep.Dynamics > 0 {
		info.filterShareDyn = rep.FilterTime / rep.Dynamics
	}
	return info
}

// runner is the server.Options.Runner of a traced stack.  The job key is
// derived before the span opens, so its cost lands in server.handle's self
// time, not in core.run.
func (tr *tracer) runner() server.Runner {
	return func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
		var parent, request int64
		if key, err := server.JobKeyFor(cfg, steps); err == nil {
			if i, ok := tr.keyIndex[key]; ok {
				packed := tr.waiting[i].Load()
				request, parent = packed>>32, packed&(1<<32-1)
			}
		}
		return tr.run(ctx, cfg, steps, parent, request)
	}
}

// gatewayHandler wraps gateway.Handler(): it records gateway.handle and puts
// the link into the request context for linkTransport to forward.
func (tr *tracer) gatewayHandler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l, ok := parseLink(r.Header.Get(spanHeader))
		if !ok {
			inner.ServeHTTP(w, r)
			return
		}
		id := tr.newID()
		start := tr.now()
		ctx := context.WithValue(r.Context(), linkKey{}, link{l.request, id, l.key})
		inner.ServeHTTP(w, r.WithContext(ctx))
		tr.add(span{ID: id, Parent: l.parent, Request: l.request, Name: "gateway.handle", Start: start, End: tr.now()})
	})
}

// serverHandler wraps server.Handler(): it records server.handle and
// registers itself as the span waiting on the key's run.  Requests without
// the header (the gateway's /readyz probes) pass through unrecorded.
func (tr *tracer) serverHandler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l, ok := parseLink(r.Header.Get(spanHeader))
		if !ok || l.key < 0 || l.key >= len(tr.waiting) {
			inner.ServeHTTP(w, r)
			return
		}
		id := tr.newID()
		start := tr.now()
		tr.waiting[l.key].Store(l.request<<32 | id)
		inner.ServeHTTP(w, r)
		tr.add(span{ID: id, Parent: l.parent, Request: l.request, Name: "server.handle", Start: start, End: tr.now()})
	})
}

// linkTransport is the gateway's Options.Transport in a traced stack: it
// copies the link from the attempt's context onto the outgoing request.
type linkTransport struct{ base http.RoundTripper }

func (t linkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if l, ok := req.Context().Value(linkKey{}).(link); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, l.String())
	}
	return t.base.RoundTrip(req)
}

// --- analysis ---------------------------------------------------------------

// tree indexes the recorded spans by ID and by parent.
type tree struct {
	spans    []span
	byID     map[int64]span
	children map[int64][]span
}

func (tr *tracer) tree() tree {
	t := tree{spans: tr.spans, byID: make(map[int64]span, len(tr.spans)), children: make(map[int64][]span)}
	for _, s := range tr.spans {
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// check verifies the trace's shape: every parent resolves, children nest
// inside their parents (so no self time is negative) and the spans of one
// request share its identifier.
func (tr *tracer) check() error {
	t := tr.tree()
	for _, s := range tr.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := t.byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d does not resolve", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not nested inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Request != p.Request {
			return fmt.Errorf("span %d (%s) has request %d, its parent %d", s.ID, s.Name, s.Request, p.Request)
		}
	}
	return nil
}

// selfMS returns, for every span called name whose children keep accepts,
// its duration minus the part those children cover, in ms.
func (t tree) selfMS(name string, keep func(kids []span) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		kids := t.children[s.ID]
		if !keep(kids) {
			continue
		}
		self := s.End - s.Start
		for _, c := range kids {
			self -= c.End - c.Start
		}
		out = append(out, float64(self)/1e6)
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// ui.perfetto.dev): one complete event per span, one row per client lane.
func (tr *tracer) writeChrome(path string, lanes int, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	// A capped file keeps whole requests, so every written span's parent is
	// written too.
	perRequest := make(map[int64]int)
	for _, s := range tr.spans {
		perRequest[s.Request]++
	}
	keep := make(map[int64]bool)
	written := 0
	for _, s := range tr.spans {
		if !keep[s.Request] && written < maxSpansWritten {
			keep[s.Request] = true
			written += perRequest[s.Request]
		}
	}
	meta["spans_total"] = len(tr.spans)
	meta["spans_written"] = written
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	for _, s := range tr.spans {
		if !keep[s.Request] {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		raw, err := json.Marshal(event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Request % int64(lanes),
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "request": s.Request},
		})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(raw)
	}
	rawMeta, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, `],"otherData":%s}`+"\n", rawMeta)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
