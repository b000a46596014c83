package engine

import (
	"math/rand"
	"testing"
)

// TestRunQueueMatchesSliceModel drives the ring-buffer run queue through a
// seeded mix of back pushes, front pushes of batch tails and pops, across
// every wrap-around and growth of its buffer, and checks each pop and the
// final takeAll against a plain slice model.
func TestRunQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q runQueue
	var model []*task
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			tk := new(task)
			q.pushBack(tk)
			model = append(model, tk)
		case r < 6:
			ts := make([]task, rng.Intn(20))
			q.pushFront(ts)
			front := make([]*task, len(ts))
			for i := range ts {
				front[i] = &ts[i]
			}
			model = append(front, model...)
		default:
			if len(model) == 0 {
				continue
			}
			if got := q.popFront(); got != model[0] {
				t.Fatalf("op %d: popFront returned a task out of order", op)
			}
			model = model[1:]
		}
		if q.len() != len(model) {
			t.Fatalf("op %d: len() = %d, model holds %d", op, q.len(), len(model))
		}
	}
	rest := q.takeAll()
	if len(rest) != len(model) || q.len() != 0 {
		t.Fatalf("takeAll returned %d tasks and left %d, model holds %d", len(rest), q.len(), len(model))
	}
	for i := range rest {
		if rest[i] != model[i] {
			t.Fatalf("takeAll position %d out of order", i)
		}
	}
}
