package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"agcm/internal/sim"
)

func eventResult(t *testing.T) *sim.Result {
	t.Helper()
	m := sim.New(2, flatModel{})
	m.SetEventLog(true)
	res, err := m.Run(func(p *sim.Proc) error {
		p.Account(sim.Physics, func() { p.Compute(1000) })
		if p.Rank() == 0 {
			p.SendFloatsCopy(1, 0, []float64{1, 2}, 16)
		} else {
			p.Account(sim.DynamicsComm, func() { p.RecvFloatsInto(0, 0, nil) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExportChromeTrace(t *testing.T) {
	res := eventResult(t)
	var buf bytes.Buffer
	if err := ExportChromeTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	var spans, sends, flows, metas, waits int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			if e["name"] == "wait" {
				waits++
			} else {
				spans++
			}
		case "s":
			sends++
		case "f":
			flows++
		case "M":
			metas++
		}
	}
	if metas != 2 {
		t.Errorf("expected 2 thread_name records, got %d", metas)
	}
	if spans != 3 { // physics on both ranks + dynamics-comm span on rank 1
		t.Errorf("expected 3 spans, got %d", spans)
	}
	if sends != 1 || flows != 1 {
		t.Errorf("expected 1 send/1 flow, got %d/%d", sends, flows)
	}
	if waits != 1 {
		t.Errorf("expected 1 wait interval, got %d", waits)
	}
	// Flow id links sender and receiver records.
	if !strings.Contains(buf.String(), `"id":"0.1"`) {
		t.Errorf("flow id missing:\n%s", buf.String())
	}
}

func TestExportChromeTraceRequiresLog(t *testing.T) {
	res := demoResult(t) // no event log
	if err := ExportChromeTrace(&bytes.Buffer{}, res); err == nil {
		t.Fatal("export without event log succeeded")
	}
}

func TestEventLogDisabledByDefault(t *testing.T) {
	res := demoResult(t)
	if res.Events != nil {
		t.Fatal("events recorded with the event log off")
	}
}
