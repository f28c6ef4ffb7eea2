package comm

import (
	"fmt"
	"testing"
)

// payload is rank r's contribution to the single-buffer operations; its
// length varies by rank so the variable-length paths are exercised.
func payload(r int) []float64 {
	p := make([]float64, 2+r%3)
	for i := range p {
		p[i] = float64(r*100 + i)
	}
	return p
}

// segment is what rank src sends rank dst in the per-destination operations.
func segment(src, dst int) []float64 {
	p := make([]float64, 1+(src+dst)%3)
	for i := range p {
		p[i] = float64(src*10000 + dst*100 + i)
	}
	return p
}

// reduceLen is the vector length of the reductions (equal on every rank).
const reduceLen = 3

// valueOp is one send or collective under TestValueSemantics.  run performs
// it on fresh buffers and returns the buffers it handed in (sent), the
// buffers it got back that do not alias sent (got), and what got must hold.
type valueOp struct {
	name   string
	rooted bool
	run    func(c *Comm, root int) (sent, got, want [][]float64)
}

var valueOps = []valueOp{
	{"SendCopy/RecvInto", false, func(c *Comm, _ int) (sent, got, want [][]float64) {
		n := c.Size()
		data := payload(c.Rank())
		c.SendCopy((c.Rank()+1)%n, 7, data)
		prev := (c.Rank() + n - 1) % n
		return [][]float64{data}, [][]float64{c.RecvInto(prev, 7, nil)}, [][]float64{payload(prev)}
	}},
	{"SendrecvInto", false, func(c *Comm, _ int) (sent, got, want [][]float64) {
		n := c.Size()
		data := payload(c.Rank())
		prev := (c.Rank() + n - 1) % n
		res := c.SendrecvInto((c.Rank()+1)%n, 7, data, prev, 7, make([]float64, 9))
		return [][]float64{data}, [][]float64{res}, [][]float64{payload(prev)}
	}},
	{"BcastInto", true, func(c *Comm, root int) (sent, got, want [][]float64) {
		buf := make([]float64, 9)
		if c.Rank() == root {
			buf = payload(root)
		}
		res := c.BcastInto(root, buf)
		if c.Rank() == root {
			// The root's result is its own buffer; there is nothing to check.
			return [][]float64{buf}, nil, nil
		}
		return nil, [][]float64{res}, [][]float64{payload(root)}
	}},
	{"ReduceInto", true, func(c *Comm, root int) (sent, got, want [][]float64) {
		data := reduceData(c.Rank())
		res := c.ReduceInto(root, data, nil, SumOp)
		if c.Rank() != root {
			return [][]float64{data}, nil, nil
		}
		return [][]float64{data}, [][]float64{res}, [][]float64{reduceSum(c.Size())}
	}},
	{"AllreduceInto", false, func(c *Comm, _ int) (sent, got, want [][]float64) {
		data := reduceData(c.Rank())
		res := c.AllreduceInto(data, nil, SumOp)
		return [][]float64{data}, [][]float64{res}, [][]float64{reduceSum(c.Size())}
	}},
	{"GathervInto", true, func(c *Comm, root int) (sent, got, want [][]float64) {
		data := payload(c.Rank())
		parts := c.GathervInto(root, data, make([][]float64, c.Size()))
		if c.Rank() != root {
			return [][]float64{data}, nil, nil
		}
		return [][]float64{data}, parts, allPayloads(c.Size())
	}},
	{"ScattervInto", true, func(c *Comm, root int) (sent, got, want [][]float64) {
		var parts [][]float64
		if c.Rank() == root {
			parts = segmentsFrom(root, c.Size())
		}
		res := c.ScattervInto(root, parts, nil)
		return parts, [][]float64{res}, [][]float64{segment(root, c.Rank())}
	}},
	{"AlltoallvInto", false, func(c *Comm, _ int) (sent, got, want [][]float64) {
		n := c.Size()
		parts := segmentsFrom(c.Rank(), n)
		want = make([][]float64, n)
		for src := range want {
			want[src] = segment(src, c.Rank())
		}
		return parts, c.AlltoallvInto(parts, make([][]float64, n)), want
	}},
	{"AllgathervInto", false, func(c *Comm, _ int) (sent, got, want [][]float64) {
		data := payload(c.Rank())
		return [][]float64{data}, c.AllgathervInto(data, make([][]float64, c.Size())), allPayloads(c.Size())
	}},
	{"AllgathervTree", false, func(c *Comm, _ int) (sent, got, want [][]float64) {
		data := payload(c.Rank())
		return [][]float64{data}, c.AllgathervTree(data), allPayloads(c.Size())
	}},
}

func reduceData(r int) []float64 {
	d := make([]float64, reduceLen)
	for i := range d {
		d[i] = float64(r*10 + i)
	}
	return d
}

func reduceSum(n int) []float64 {
	sum := make([]float64, reduceLen)
	for r := 0; r < n; r++ {
		SumOp(sum, reduceData(r))
	}
	return sum
}

func allPayloads(n int) [][]float64 {
	all := make([][]float64, n)
	for r := range all {
		all[r] = payload(r)
	}
	return all
}

func segmentsFrom(src, n int) [][]float64 {
	parts := make([][]float64, n)
	for dst := range parts {
		parts[dst] = segment(src, dst)
	}
	return parts
}

func fill(bufs [][]float64, v float64) {
	for _, b := range bufs {
		for i := range b {
			b[i] = v
		}
	}
}

// TestValueSemantics checks that no operation of Comm lets two ranks share a
// backing array.  Every rank scribbles on its send buffers the instant the
// call returns, so a receiver that was handed the sender's array reads the
// scribble instead of the data; then — between barriers — every rank
// overwrites what it received with a value of its own and checks that the
// value is still there after all the others have done the same, so two
// receivers that were handed one array see each other's writes.  Under -race
// either kind of sharing is also a reported data race.
func TestValueSemantics(t *testing.T) {
	for _, op := range valueOps {
		for n := 1; n <= 9; n++ {
			roots := 1
			if op.rooted {
				roots = n
			}
			for root := 0; root < roots; root++ {
				op, n, root := op, n, root
				runWorld(t, n, func(c *Comm) error {
					where := fmt.Sprintf("%s n=%d root=%d rank=%d", op.name, n, root, c.Rank())
					sent, got, want := op.run(c, root)
					fill(sent, -1)
					if len(got) != len(want) {
						return fmt.Errorf("%s: got %d buffers, want %d", where, len(got), len(want))
					}
					for i := range want {
						if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
							return fmt.Errorf("%s: buffer %d = %v, want %v", where, i, got[i], want[i])
						}
					}
					c.Barrier()
					mine := float64(1000 + c.Rank())
					fill(got, mine)
					fill(sent, mine)
					c.Barrier()
					for _, bufs := range [][][]float64{got, sent} {
						for i, b := range bufs {
							for _, v := range b {
								if v != mine {
									return fmt.Errorf("%s: buffer %d holds %v after this rank filled it with %v: another rank writes the same array", where, i, b, mine)
								}
							}
						}
					}
					return nil
				})
			}
		}
	}
}
