package metrics

import (
	"bytes"
	"sync"
	"testing"
)

func TestExposition(t *testing.T) {
	r := New()
	reqs := r.Counter("t_requests_total", "Requests by outcome.", "result")
	resp := r.Counter("t_responses_total", "Responses.", "backend", "code")
	runs := r.Counter("t_runs_total", "Runs.")
	r.IntFunc("t_depth", "Depth.", "gauge", func() int64 { return 1 << 21 })
	r.IntVecFunc("t_state", "State.", "gauge", "backend", func(emit func(string, int64)) {
		emit("a", 1)
		emit("b", 0)
	})
	r.FloatFunc("t_tokens", "Tokens.", func() float64 { return 1e6 })
	lat := r.Histogram("t_seconds", "Latency.", []float64{0.5, 1})
	byClass := r.Histogram("t_class_seconds", "Latency by class.", []float64{0.5, 1}, "class")

	for _, v := range []string{"miss", "hit", `we"ird`, "hit"} {
		reqs.Inc(v)
	}
	resp.Inc("b", "200")
	resp.Inc("a", "503")
	resp.Inc("a", "200")
	lat.Observe(0.25)
	lat.Observe(1) // a bound is inclusive
	lat.Observe(9) // beyond the last bound: +Inf only
	byClass.Observe(0.75, "batch")

	const want = `# HELP t_requests_total Requests by outcome.
# TYPE t_requests_total counter
t_requests_total{result="hit"} 2
t_requests_total{result="miss"} 1
t_requests_total{result="we\"ird"} 1
# HELP t_responses_total Responses.
# TYPE t_responses_total counter
t_responses_total{backend="a",code="200"} 1
t_responses_total{backend="a",code="503"} 1
t_responses_total{backend="b",code="200"} 1
# HELP t_runs_total Runs.
# TYPE t_runs_total counter
t_runs_total 0
# HELP t_depth Depth.
# TYPE t_depth gauge
t_depth 2097152
# HELP t_state State.
# TYPE t_state gauge
t_state{backend="a"} 1
t_state{backend="b"} 0
# HELP t_tokens Tokens.
# TYPE t_tokens gauge
t_tokens 1e+06
# HELP t_seconds Latency.
# TYPE t_seconds histogram
t_seconds_bucket{le="0.5"} 1
t_seconds_bucket{le="1"} 2
t_seconds_bucket{le="+Inf"} 3
t_seconds_sum 10.25
t_seconds_count 3
# HELP t_class_seconds Latency by class.
# TYPE t_class_seconds histogram
t_class_seconds_bucket{class="batch",le="0.5"} 0
t_class_seconds_bucket{class="batch",le="1"} 1
t_class_seconds_bucket{class="batch",le="+Inf"} 1
t_class_seconds_sum{class="batch"} 0.75
t_class_seconds_count{class="batch"} 1
`
	var a, b bytes.Buffer
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	r.WriteText(&b)
	if a.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", a.String(), want)
	}
	if a.String() != b.String() {
		t.Error("two scrapes of identical state differ")
	}

	if reqs.Get("hit") != 2 || reqs.Get("never") != 0 || resp.Total() != 3 || runs.Get() != 0 {
		t.Errorf("getters: hit %d never %d total %d runs %d",
			reqs.Get("hit"), reqs.Get("never"), resp.Total(), runs.Get())
	}
	if n, sum := lat.Snapshot(); n != 3 || sum != 10.25 {
		t.Errorf("snapshot = %d, %g", n, sum)
	}
	if reqs.Get("never"); bytes.Contains(a.Bytes(), []byte("never")) {
		t.Error("Get created a series")
	}
}

// TestRequestPathAllocs pins the request path: a labelled Inc and a histogram
// Observe on an existing series allocate nothing.
func TestRequestPathAllocs(t *testing.T) {
	r := New()
	one := r.Counter("t_one_total", "One label.", "result")
	two := r.Counter("t_two_total", "Two labels.", "backend", "code")
	plain := r.Histogram("t_seconds", "Plain.", []float64{1, 2})
	labelled := r.Histogram("t_class_seconds", "Labelled.", []float64{1, 2}, "class")
	backend, code := "http://a", "200"
	touch := func() {
		one.Inc("hit")
		two.Inc(backend, code)
		plain.Observe(1.5)
		labelled.Observe(1.5, "batch")
	}
	touch()
	if n := testing.AllocsPerRun(200, touch); n != 0 {
		t.Errorf("Inc/Observe on existing series: %v allocs, want 0", n)
	}
}

func TestLabelCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inc with a missing label value did not panic")
		}
	}()
	New().Counter("t_total", "T.", "a", "b").Inc("only-one")
}

// TestConcurrentUse runs writers against scrapers under -race.
func TestConcurrentUse(t *testing.T) {
	r := New()
	c := r.Counter("t_total", "T.", "k")
	h := r.Histogram("t_seconds", "S.", []float64{1}, "k")
	r.IntFunc("t_gauge", "G.", "gauge", func() int64 { return int64(c.Get("a")) })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc("a")
				h.Observe(0.5, "a")
				r.WriteText(&bytes.Buffer{})
			}
		}()
	}
	wg.Wait()
	if c.Get("a") != 800 {
		t.Errorf("count %d, want 800", c.Get("a"))
	}
}
