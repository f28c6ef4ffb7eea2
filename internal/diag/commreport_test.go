package diag

import (
	"strings"
	"testing"

	"agcm/internal/sim"
	"agcm/internal/trace"
)

type commModel struct{}

func (commModel) FlopSeconds(n float64) float64         { return n * 1e-6 }
func (commModel) MemSeconds(n float64) float64          { return n * 1e-9 }
func (commModel) SendOverheadSeconds(bytes int) float64 { return 1e-5 }
func (commModel) RecvOverheadSeconds(bytes int) float64 { return 1e-5 }
func (commModel) NetworkSeconds(bytes int) float64      { return 1e-4 + float64(bytes)*1e-8 }

func TestCommMatrixTable(t *testing.T) {
	m := sim.New(3, commModel{})
	m.SetEventLog(true)
	res, err := m.Run(func(p *sim.Proc) error {
		if p.Rank() == 0 {
			p.SendFloatsCopy(1, 1, []float64{1}, 8000)
			p.SendFloatsCopy(2, 1, []float64{1}, 80)
		}
		if p.Rank() != 0 {
			p.RecvFloatsInto(0, 1, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := CommMatrixTable(trace.NewCommMatrix(res), 5)
	if !strings.Contains(out, "3 ranks, 2 messages") {
		t.Fatalf("missing totals:\n%s", out)
	}
	// The heavy pair leads the listing.
	lines := strings.Split(out, "\n")
	var first string
	for _, l := range lines {
		if strings.Contains(l, "1.") {
			first = l
			break
		}
	}
	if !strings.Contains(first, "rank    0 -> 1") {
		t.Fatalf("hottest pair not first:\n%s", out)
	}
	if got := CommMatrixTable(nil, 5); !strings.Contains(got, "not enabled") {
		t.Fatalf("nil matrix message wrong: %q", got)
	}
}
