// Package viewmut exercises the read-only snapshot view rule: writes
// through views obtained from Scan/TryScan (or received as view
// parameters) are flagged; mutations of fresh private buffers are not.
package viewmut

import "shmem"

func mutateScan(m shmem.Mem) {
	view := m.Scan(0)
	view[0] = nil // want "write through snapshot view view"
}

func mutateTryScan(ts shmem.TryScanner) {
	view, ok := ts.TryScan(0, 8)
	if !ok {
		return
	}
	view[0] = 1 // want "write through snapshot view view"
}

func mutateParam(view []shmem.Value) {
	view[1] = 7 // want "write through snapshot view view"
}

func copyIntoView(m shmem.Mem, src []shmem.Value) {
	view := m.Scan(0)
	copy(view, src) // want "copy into snapshot view view"
}

func appendToView(m shmem.Mem) []shmem.Value {
	view := m.Scan(0)
	return append(view, nil) // want "append to snapshot view view"
}

func addressEscape(m shmem.Mem) *shmem.Value {
	view := m.Scan(0)
	return &view[0] // want "taking the address of an element of snapshot view view"
}

func resliceStillView(m shmem.Mem) {
	tail := m.Scan(0)[1:]
	tail[0] = nil // want "write through snapshot view tail"
}

// privateBuffer mirrors internal/register.LockFree.Update: the current view
// is read-only; the mutation lands in a fresh buffer whose length equals the
// view's (the lock-free register's length invariant).
func privateBuffer(cur []shmem.Value, comp int, v shmem.Value) []shmem.Value {
	next := make([]shmem.Value, len(cur))
	copy(next, cur)
	next[comp] = v
	return next
}

// rebindKillsTaint: assigning a fresh slice over the view variable starts a
// private buffer; later writes are fine.
func rebindKillsTaint(m shmem.Mem) {
	view := m.Scan(0)
	view = make([]shmem.Value, 4)
	view[0] = nil
	_ = view
}

// suppressed demonstrates a documented //lint:ignore directive: the
// analysistest harness runs findings through the same filter cmd/salint
// uses, so no diagnostic survives here.
func suppressed(m shmem.Mem) {
	view := m.Scan(0)
	//lint:ignore viewmut fixture exercises the documented-suppression path
	view[0] = nil
}
