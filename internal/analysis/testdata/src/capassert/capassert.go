// Package capassert exercises the optional-capability rule: assertions to
// shmem capability interfaces must be comma-ok (or a type switch) so a
// backend without the capability degrades instead of panicking.
package capassert

import "shmem"

func assumeNotifier(m shmem.Mem) uint64 {
	nt := m.(shmem.Notifier) // want "single-result assertion to capability shmem.Notifier"
	return nt.Version()
}

func assumeStepperInline(m shmem.Mem) int64 {
	return m.(shmem.Stepper).Steps() // want "single-result assertion to capability shmem.Stepper"
}

func probeNotifier(m shmem.Mem) uint64 {
	if nt, ok := m.(shmem.Notifier); ok {
		return nt.Version()
	}
	return 0
}

func probeTryScanner(m shmem.Mem) ([]shmem.Value, bool) {
	ts, ok := m.(shmem.TryScanner)
	if !ok {
		return nil, false
	}
	return ts.TryScan(0, 8)
}

func switchProbe(m shmem.Mem) int64 {
	switch v := m.(type) {
	case shmem.Stepper:
		return v.Steps()
	case shmem.CASRetrier:
		return v.CASRetries()
	default:
		return 0
	}
}

func nonCapability(v any) int {
	return v.(int)
}
