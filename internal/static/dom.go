package static

// dominators computes immediate dominators of the CFG's reachable blocks
// with the Cooper–Harvey–Kennedy iterative algorithm over a reverse
// postorder. Idom[0] = 0 (the entry dominates itself by convention);
// unreachable blocks get -1.
func dominators(g *CFG) []int {
	n := len(g.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return idom
	}

	// Reverse postorder of the reachable subgraph (iterative DFS).
	post := make([]int, 0, n)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	type dfsFrame struct{ b, next int }
	stack := []dfsFrame{{b: 0}}
	state[0] = 1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := g.Blocks[top.b].Succs
		if top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, dfsFrame{b: s})
			}
			continue
		}
		state[top.b] = 2
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range rpo {
		rpoNum[b] = i
	}

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if rpoNum[p] < 0 || idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}
