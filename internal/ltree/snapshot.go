package ltree

// NodeState records one trained tree node for persistence. History holds
// the idle-class path from the root (bit 0 = most recent class) and Depth
// how many of its bits are meaningful.
type NodeState struct {
	History uint32 `json:"history"`
	Depth   int    `json:"depth"`
	Counter int    `json:"counter"`
	Visits  int    `json:"visits"`
}

// Snapshot returns every trained node in deterministic depth-first order,
// suitable for persisting an application's tree across executions.
func (t *Tree) Snapshot() []NodeState {
	var out []NodeState
	var walk func(n *node, history uint32, depth int)
	walk = func(n *node, history uint32, depth int) {
		for bit, child := range n.children {
			if child == nil {
				continue
			}
			h := history | uint32(bit)<<uint(depth)
			out = append(out, NodeState{History: h, Depth: depth + 1, Counter: child.counter, Visits: child.visits})
			walk(child, h, depth+1)
		}
	}
	walk(t.root, 0, 0)
	return out
}

// Restore loads a snapshot into the tree, merging with any existing
// state: restored counters and visits overwrite node values, and missing
// interior nodes are created.
func (t *Tree) Restore(nodes []NodeState) {
	for _, ns := range nodes {
		n := t.root
		for d := 0; d < ns.Depth; d++ {
			bit := ns.History >> uint(d) & 1
			if n.children[bit] == nil {
				n.children[bit] = &node{}
				t.nodes++
			}
			n = n.children[bit]
		}
		n.counter = ns.Counter
		n.visits = ns.Visits
	}
}
