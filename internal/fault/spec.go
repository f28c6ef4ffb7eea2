package fault

// Parsing for the -fault-spec command-line syntax: semicolon-separated
// clauses, each a kind with comma-separated key=value parameters, e.g.
//
//	seed=42;slow:rank=3,at=1.5,factor=4;crash:rank=1,at=9.2
//	jitter:max=2e-4;drop:prob=0.01,retries=4,timeout=5e-3

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Parse builds a Spec from the clause syntax above.  An empty string yields
// an empty (inject-nothing) spec.
func Parse(s string) (*Spec, error) {
	spec := &Spec{}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, params := clause, ""
		if i := strings.Index(clause, ":"); i >= 0 {
			kind, params = clause[:i], clause[i+1:]
		}
		kv, err := ParseParams(params)
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		switch {
		case strings.HasPrefix(kind, "seed="):
			// seed is a bare key=value clause, not kind:params.
			v, err := strconv.ParseUint(strings.TrimPrefix(kind, "seed="), 10, 64)
			if err != nil || len(kv) > 0 {
				return nil, fmt.Errorf("fault: bad seed in %q", clause)
			}
			spec.Seed = v
		case kind == "slow":
			sl := Slowdown{Rank: -1, Factor: 2}
			if err := Assign(kv, map[string]any{"rank": &sl.Rank, "at": &sl.At, "factor": &sl.Factor}); err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			spec.Slowdowns = append(spec.Slowdowns, sl)
		case kind == "crash":
			c := Crash{Rank: -1}
			if err := Assign(kv, map[string]any{"rank": &c.Rank, "at": &c.At}); err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			spec.Crashes = append(spec.Crashes, c)
		case kind == "jitter":
			j := &Jitter{}
			if err := Assign(kv, map[string]any{"max": &j.Max}); err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			spec.Jitter = j
		case kind == "drop":
			d := &Drop{Retries: 3}
			if err := Assign(kv, map[string]any{"prob": &d.Prob, "retries": &d.Retries, "timeout": &d.Timeout}); err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			spec.Drop = d
		default:
			return nil, fmt.Errorf("fault: unknown clause kind %q (want seed=, slow:, crash:, jitter: or drop:)", kind)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseParams splits a clause's "k1=v1,k2=v2" parameter list into a map.
// Exported with Assign for internal/gateway/chaostest, whose spec grammar is
// this one.
func ParseParams(s string) (map[string]string, error) {
	kv := make(map[string]string)
	if strings.TrimSpace(s) == "" {
		return kv, nil
	}
	for _, p := range strings.Split(s, ",") {
		i := strings.Index(p, "=")
		if i <= 0 {
			return nil, fmt.Errorf("bad parameter %q (want key=value)", p)
		}
		kv[strings.TrimSpace(p[:i])] = strings.TrimSpace(p[i+1:])
	}
	return kv, nil
}

// Assign writes each parsed parameter into its typed destination (*int or
// *float64) and rejects keys the clause does not define.
func Assign(kv map[string]string, dst map[string]any) error {
	// Visit keys in sorted order so that, with several bad parameters, the
	// one reported does not depend on map iteration order.
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := kv[k]
		d, ok := dst[k]
		if !ok {
			return fmt.Errorf("unknown parameter %q", k)
		}
		switch ptr := d.(type) {
		case *int:
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("parameter %s=%q is not an integer", k, v)
			}
			*ptr = n
		case *float64:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("parameter %s=%q is not a number", k, v)
			}
			*ptr = f
		default:
			panic("fault: unsupported destination type")
		}
	}
	return nil
}
