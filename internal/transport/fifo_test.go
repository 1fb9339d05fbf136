package transport

import "testing"

// TestFIFOOrderAndSteadyCapacity: a FIFO pops in push order through its
// rewinds and compactions, and a rotation (pop the head, push it back)
// runs in its backing array without allocating.
func TestFIFOOrderAndSteadyCapacity(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if allocs := testing.AllocsPerRun(1000, func() { q.Push(q.Pop()) }); allocs != 0 {
		t.Fatalf("a rotation allocates %v times", allocs)
	}
}
