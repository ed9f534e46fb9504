package smd

import (
	"fmt"
	"slices"
)

// LazyGreedy is Algorithm 1 with lazy evaluation (the classic CELF
// optimization): because the utility of semi-feasible assignments is
// submodular (Lemma 2.1), a stream's fractional residual utility only
// decreases as the assignment grows, so a stale residual is a valid
// upper bound on the current one. Streams sit in a max-heap keyed by
// (possibly stale) effectiveness; only the heap top is refreshed. When
// a refreshed stream stays on top it is a true argmax — every other key
// still upper-bounds its own current effectiveness — so the selection
// sequence matches Greedy's under the same tie-breaking, and all
// Section 2 guarantees carry over unchanged.
func LazyGreedy(in *Instance) (*Result, error) {
	return new(Workspace).lazyGreedy(in)
}

// lazyGreedy is LazyGreedy run on the workspace's buffers. The result is
// the workspace's: valid until its next run.
func (w *Workspace) lazyGreedy(in *Instance) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("smd: lazy greedy: %w", err)
	}
	e := &w.engine
	e.reset(in)
	nS := in.NumStreams()

	pq := slices.Grow(w.heap[:0], nS)
	for s := 0; s < nS; s++ {
		if e.resid[s] > 0 {
			pq = append(pq, lazyItem{stream: s, resid: e.resid[s], cost: in.Costs[s], round: 0})
		}
	}
	pq.init()

	round := 0
	for len(pq) > 0 {
		top := &pq[0]
		if e.done[top.stream] {
			pq = pq.pop()
			continue
		}
		if top.round != round {
			// Refresh the stale key and re-heapify; whatever ends up on
			// top next iteration is examined then.
			stream := top.stream
			top.resid = e.resid[stream]
			top.round = round
			if top.resid <= 0 {
				pq = pq.pop()
				continue
			}
			pq.fix(0)
			if pq[0].stream != stream {
				continue
			}
		}
		s := pq[0].stream
		pq = pq.pop()
		if e.resid[s] <= 0 {
			continue
		}
		e.iters++
		if e.cost+in.Costs[s] <= in.Budget+capTolerance {
			e.assign(s)
			round++
		} else {
			if !e.blocked {
				e.blocked = true
				e.augmented = e.value + e.resid[s]
			}
			e.done[s] = true
		}
	}
	w.heap = pq
	if w.res == nil {
		w.res = new(Result)
	}
	return e.finish(w.res), nil
}

// lazyItem carries a possibly stale residual for one stream. cost is
// immutable and cached for the effectiveness comparison.
type lazyItem struct {
	stream int
	resid  float64
	cost   float64
	round  int
}

// lazyHeap orders by effectiveness resid/cost descending using
// cross-multiplication (zero-cost streams sort first), with Greedy's
// tie-breaks: larger residual, then smaller stream index. Its methods
// are container/heap's algorithms on the concrete item type, so a pop
// boxes nothing.
type lazyHeap []lazyItem

func (h lazyHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	left := a.resid * b.cost
	right := b.resid * a.cost
	if left != right {
		return left > right
	}
	if a.resid != b.resid {
		return a.resid > b.resid
	}
	return a.stream < b.stream
}

// init establishes the heap order (heap.Init).
func (h lazyHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// pop removes the top item and returns the shortened heap (heap.Pop).
func (h lazyHeap) pop() lazyHeap {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.down(0, n)
	return h[:n]
}

// fix restores the order after item i's key changed (heap.Fix).
func (h lazyHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

func (h lazyHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h lazyHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}
