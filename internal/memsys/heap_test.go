package memsys

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap event queue the typed eventHeap
// replaced, kept as its ordering reference.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestEventHeapMatchesContainerHeap interleaves random pushes and pops
// on the typed heap and on container/heap and requires the identical
// pop sequence, with timestamps drawn from a small set so ties (broken
// by seq) are common.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		var got eventHeap
		var want refHeap
		var seq uint64
		ties := 1 + rng.Intn(8)
		for op := 0; op < 500; op++ {
			if len(got) != want.Len() {
				t.Fatalf("trial %d: sizes diverged: %d vs %d", trial, len(got), want.Len())
			}
			if len(got) > 0 && rng.Intn(3) == 0 {
				g, w := got.pop(), heap.Pop(&want).(event)
				if g != w {
					t.Fatalf("trial %d op %d: popped %+v, container/heap popped %+v", trial, op, g, w)
				}
				continue
			}
			seq++
			e := event{t: float64(rng.Intn(ties)) * 1e-9, seq: seq, kind: eventKind(rng.Intn(3)), core: rng.Intn(4), bank: rng.Intn(16)}
			got.push(e)
			heap.Push(&want, e)
		}
		for want.Len() > 0 {
			if g, w := got.pop(), heap.Pop(&want).(event); g != w {
				t.Fatalf("trial %d drain: popped %+v, container/heap popped %+v", trial, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: typed heap holds %d events after the reference drained", trial, len(got))
		}
	}
}

// TestEventHeapPushDoesNotAllocate: once the backing array has grown,
// pushes and pops reuse it (container/heap boxed every event).
func TestEventHeapPushDoesNotAllocate(t *testing.T) {
	h := make(eventHeap, 0, 64)
	var seq uint64
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			seq++
			h.push(event{t: float64(seq % 7), seq: seq})
		}
		for i := 0; i < 32; i++ {
			h.pop()
		}
	}); avg > 0 {
		t.Fatalf("push/pop allocates %.1f times per run, want 0", avg)
	}
}
