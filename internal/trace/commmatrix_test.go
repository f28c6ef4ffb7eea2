package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"agcm/internal/sim"
	"agcm/internal/topology"
)

// loggedResult runs a small ring exchange with the event log enabled.
func loggedResult(t *testing.T) *sim.Result {
	t.Helper()
	m := sim.New(4, flatModel{})
	m.EnableEventLog()
	res, err := m.Run(func(p *sim.Proc) error {
		n := p.Ranks()
		next := (p.Rank() + 1) % n
		prev := (p.Rank() + n - 1) % n
		p.SendFloatsCopy(next, 1, []float64{1, 2}, 16)
		p.RecvFloatsInto(prev, 1, nil)
		// Rank 0 also floods rank 2 to make a clear hottest pair.
		if p.Rank() == 0 {
			p.SendFloatsCopy(2, 2, make([]float64, 100), 800)
		}
		if p.Rank() == 2 {
			p.RecvFloatsInto(0, 2, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCommMatrix(t *testing.T) {
	res := loggedResult(t)
	m := NewCommMatrix(res)
	if m == nil {
		t.Fatal("nil matrix with event log enabled")
	}
	if msgs, bytes := m.At(0, 1); msgs != 1 || bytes != 16 {
		t.Fatalf("At(0,1) = %d msgs %d bytes", msgs, bytes)
	}
	if msgs, bytes := m.At(0, 2); msgs != 1 || bytes != 800 {
		t.Fatalf("At(0,2) = %d msgs %d bytes", msgs, bytes)
	}
	if got, want := m.TotalBytes(), int64(4*16+800); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}

	hot := m.HottestPairs(2)
	if len(hot) != 2 || hot[0].Src != 0 || hot[0].Dst != 2 {
		t.Fatalf("HottestPairs = %+v", hot)
	}
	// Equal-weight ring pairs tie-break by (src, dst).
	if hot[1].Src != 0 || hot[1].Dst != 1 {
		t.Fatalf("tie-break wrong: %+v", hot[1])
	}

	raw, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back CommMatrix
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ranks != 4 || back.Bytes[2] != 800 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}

	// No event log -> no matrix.
	plain := sim.New(2, flatModel{})
	pres, err := plain.Run(func(p *sim.Proc) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if NewCommMatrix(pres) != nil {
		t.Fatal("matrix from run without event log")
	}
}

func TestLinkUtilizationTable(t *testing.T) {
	topo, err := topology.NewMesh2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := topology.NewNetworkParams(topo, topology.RowMajor(), topology.Params{
		BaseSeconds: 1e-4, HopSeconds: 1e-5, LinkBytesPerSec: 1e7, InjectBytesPerSec: 1e7,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.RouteSeconds(0, 3, 1000, 0)
	n.RouteSeconds(1, 0, 500, 0)

	rep, err := n.Contend([]topology.Transfer{
		{Src: 0, Dst: 3, Bytes: 1000, Start: 0, Seq: 1},
		{Src: 1, Dst: 0, Bytes: 500, Start: 0, Seq: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	out := LinkUtilizationTable(n.LinkStats(), rep, 1.0, 4)
	if !strings.Contains(out, "carried traffic") || !strings.Contains(out, "stall ms") {
		t.Fatalf("table missing columns:\n%s", out)
	}
	if !strings.Contains(out, "contention replay: 2 transfers") {
		t.Fatalf("table missing replay summary:\n%s", out)
	}
	// Without a replay the stall column disappears.
	plain := LinkUtilizationTable(n.LinkStats(), nil, 1.0, 4)
	if strings.Contains(plain, "stall") {
		t.Fatalf("nil replay still shows stalls:\n%s", plain)
	}
	// Deterministic: same inputs, same rendering.
	if again := LinkUtilizationTable(n.LinkStats(), rep, 1.0, 4); again != out {
		t.Fatal("table not deterministic")
	}
}
