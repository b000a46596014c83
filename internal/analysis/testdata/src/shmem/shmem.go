// Package shmem is the fixture stub of the real internal/shmem: the type
// names and method shapes the salint analyzers duck-match (matching is by
// package name, so this stub and the real package hit the same rules), with
// none of the implementation.
package shmem

import "context"

// Value is one stored value.
type Value any

// Mem is the shared-memory interface.
type Mem interface {
	Read(reg int) Value
	Write(reg int, v Value)
	Update(snap, comp int, v Value)
	Scan(snap int) []Value
}

// TryScanner is the bounded-scan capability.
type TryScanner interface {
	TryScan(snap, attempts int) (view []Value, ok bool)
}

// Notifier is the event-driven waiting capability.
type Notifier interface {
	Version() uint64
	AwaitChange(ctx context.Context, v uint64) (spurious int, err error)
	RegisterWake(v uint64, fn func()) (cancel func())
	Waiters() int64
}

// Resetter is the recycling capability.
type Resetter interface {
	Reset()
}

// Stepper is the operation-count capability.
type Stepper interface {
	Steps() int64
}

// CASRetrier is the contention-count capability.
type CASRetrier interface {
	CASRetries() int64
}
