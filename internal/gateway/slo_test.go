package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"agcm/internal/server"
)

// SLO propagation through the gateway: the resolved class is stamped on
// every backend attempt, only interactive traffic hedges, and the per-class
// edge counters track validated requests.

// sloReqJSON builds a /v1/run body with an explicit slo field (empty omits
// it).
func sloReqJSON(px int, slo string) string {
	b := fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",`+
		`"mesh_py":1,"mesh_px":%d,"filter":"fft"},"steps":1`, px)
	if slo != "" {
		b += fmt.Sprintf(`,"slo":%q`, slo)
	}
	return b + "}"
}

func TestSLOHeaderStampedOnBackendAttempts(t *testing.T) {
	var lastSLO atomic.Pointer[string]
	b := newStubBackend(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(server.SLOHeader)
		lastSLO.Store(&v)
		ok200(`{"key":"k","report":{}}`+"\n")(w, r)
	})
	defer b.ts.Close()
	g := newTestGateway(t, Options{Policy: "round-robin"}, b)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	for _, tc := range []struct{ slo, want string }{
		{"", "batch"},
		{"interactive", "interactive"},
		{"batch", "batch"},
	} {
		st, _, raw := postGW(t, ts.URL, sloReqJSON(1, tc.slo))
		if st != 200 {
			t.Fatalf("slo=%q: status %d: %s", tc.slo, st, raw)
		}
		if got := lastSLO.Load(); got == nil || *got != tc.want {
			t.Fatalf("slo=%q: backend saw %v, want %q", tc.slo, got, tc.want)
		}
	}
	if got := g.metrics.ClassRequests.Get("interactive"); got != 1 {
		t.Errorf("interactive class requests = %d, want 1", got)
	}
	if got := g.metrics.ClassRequests.Get("batch"); got != 2 {
		t.Errorf("batch class requests = %d, want 2", got)
	}
}

func TestSLOHeaderFallbackAtEdge(t *testing.T) {
	// A body without an slo field plus an X-Agcm-SLO header resolves to the
	// header's class, mirroring the backend's own fallback.
	var lastSLO atomic.Pointer[string]
	b := newStubBackend(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(server.SLOHeader)
		lastSLO.Store(&v)
		ok200(`{"key":"k","report":{}}`+"\n")(w, r)
	})
	defer b.ts.Close()
	g := newTestGateway(t, Options{Policy: "round-robin"}, b)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(sloReqJSON(1, "")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.SLOHeader, "interactive")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := lastSLO.Load(); got == nil || *got != "interactive" {
		t.Fatalf("backend saw %v, want interactive", got)
	}
}

func TestUnknownSLORejectedAtEdge(t *testing.T) {
	b := newStubBackend(ok200(`{}` + "\n"))
	defer b.ts.Close()
	g := newTestGateway(t, Options{Policy: "round-robin"}, b)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	st, _, raw := postGW(t, ts.URL, sloReqJSON(1, "bulk"))
	if st != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", st, raw)
	}
	if b.runs.Load() != 0 {
		t.Fatalf("bad slo reached a backend: %d runs", b.runs.Load())
	}
}

func TestOnlyInteractiveHedges(t *testing.T) {
	// Two backends, hedging enabled, a slow deterministic primary.  A batch
	// request must wait out the primary alone; an interactive one must hedge.
	slowBody := `{"who":"slow"}` + "\n"
	fastBody := `{"who":"fast"}` + "\n"
	slow := newStubBackend(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		ok200(slowBody)(w, r)
	})
	fast := newStubBackend(ok200(fastBody))
	defer slow.ts.Close()
	defer fast.ts.Close()
	g := newTestGateway(t, Options{Policy: "key-affinity", HedgeDelay: 5 * time.Millisecond}, slow, fast)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	slowIdx := 0
	if g.backends[0].url != slow.ts.URL {
		slowIdx = 1
	}
	px := 0
	for cand := 1; cand <= 16; cand++ {
		key := keyForBody(t, sloReqJSON(cand, "batch"))
		if g.policy.Order(key, g.backends)[0] == slowIdx {
			px = cand
			break
		}
	}
	if px == 0 {
		t.Fatal("no candidate key ranked the slow backend first")
	}

	st, _, raw := postGW(t, ts.URL, sloReqJSON(px, "batch"))
	if st != 200 || string(raw) != slowBody {
		t.Fatalf("batch request got %d %q, want the primary's answer", st, raw)
	}
	if g.metrics.Hedges.Get("launched") != 0 {
		t.Fatalf("batch request hedged: %d launched", g.metrics.Hedges.Get("launched"))
	}

	st, _, raw = postGW(t, ts.URL, sloReqJSON(px, "interactive"))
	if st != 200 {
		t.Fatalf("interactive request status %d: %s", st, raw)
	}
	if string(raw) != fastBody {
		t.Fatalf("interactive winner %q, want the hedged shard's %q", raw, fastBody)
	}
	if g.metrics.Hedges.Get("launched") != 1 {
		t.Fatalf("interactive request did not hedge: %d launched", g.metrics.Hedges.Get("launched"))
	}
}
