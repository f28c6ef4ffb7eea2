package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"agcm/internal/machine"
	"agcm/internal/sim"
	"agcm/internal/topology"
)

// loggedResult runs a small ring exchange with the event log enabled.
func loggedResult(t *testing.T) *sim.Result {
	t.Helper()
	m := sim.New(4, flatModel{})
	m.SetEventLog(true)
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
	topo, err := topology.NewGrid(false, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	mod := *machine.Paragon()
	mod.Bandwidth = 1e7
	n, err := topology.NewNetwork(topo, topology.RowMajor(), &mod)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 3 crosses two links with 1000 bytes, 1 -> 0 one with 500, and
	// 3 -> 2 one with 1000: a byte tie the table breaks by link id.
	rep, err := n.Contend([]topology.Transfer{
		{Src: 0, Dst: 3, Bytes: 1000, Start: 0, Seq: 1},
		{Src: 1, Dst: 0, Bytes: 500, Start: 0, Seq: 1},
		{Src: 3, Dst: 2, Bytes: 1000, Start: 0, Seq: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	out := LinkUtilizationTable(rep, 1.0, 3)
	if !strings.Contains(out, "links: 8 total, 4 carried traffic") || !strings.Contains(out, "stall ms") {
		t.Fatalf("table missing columns:\n%s", out)
	}
	if !strings.Contains(out, "contention replay: 3 transfers") {
		t.Fatalf("table missing replay summary:\n%s", out)
	}
	if !strings.Contains(out, "... (3 of 4 active links shown)") {
		t.Fatalf("table does not report the hidden link:\n%s", out)
	}
	// Rows: the three 1000-byte links in link-id order; the 500-byte link
	// is the one cut off.
	var want []string
	for _, l := range rep.Links {
		if l.Bytes == 1000 {
			want = append(want, l.Name)
		}
	}
	rows := strings.Split(out, "\n")[2:5]
	for i, row := range rows {
		if len(want) != 3 || !strings.HasPrefix(row, want[i]+" ") {
			t.Fatalf("row %d = %q, want link %v[%d] first\n%s", i, row, want, i, out)
		}
	}
	// Deterministic: same inputs, same rendering.
	if again := LinkUtilizationTable(rep, 1.0, 3); again != out {
		t.Fatal("table not deterministic")
	}
}
