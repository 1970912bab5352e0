package kernel

import "slices"

// RWSem is a reader-writer semaphore with FIFO handoff in virtual time —
// the model of mmap_sem. Writers exclude everyone; readers share. A thread
// that fails to acquire blocks (yielding its core) and resumes, lock in
// hand, when next scheduled after the grant.
//
// Grant callbacks for uncontended acquisitions run synchronously in the
// caller's event context; contended ones run after a wake + dispatch, which
// naturally adds the scheduling latency a sleeping lock costs.
type RWSem struct {
	k       *Kernel
	readers int
	writer  bool
	waiters []semWaiter

	// Contended counts acquisitions that had to block.
	Contended uint64
}

type semWaiter struct {
	write bool
	th    *Thread
	grant func()
}

// NewRWSem returns an unlocked semaphore.
func NewRWSem(k *Kernel) *RWSem {
	return &RWSem{k: k}
}

// AcquireRead takes the lock shared. th must be current on c. A queued
// writer blocks new readers (FIFO fairness, as rwsems behave under
// contention).
func (s *RWSem) AcquireRead(c *Core, th *Thread, grant func()) {
	if !s.writer && len(s.waiters) == 0 {
		s.readers++
		grant()
		return
	}
	s.Contended++
	s.k.Metrics.Inc("sem.contended", 1)
	s.waiters = append(s.waiters, semWaiter{write: false, th: th, grant: grant})
	c.block(th, blockedOnSem)
}

// AcquireWrite takes the lock exclusive. th must be current on c.
func (s *RWSem) AcquireWrite(c *Core, th *Thread, grant func()) {
	if !s.writer && s.readers == 0 && len(s.waiters) == 0 {
		s.writer = true
		grant()
		return
	}
	s.Contended++
	s.k.Metrics.Inc("sem.contended", 1)
	s.waiters = append(s.waiters, semWaiter{write: true, th: th, grant: grant})
	c.block(th, blockedOnSem)
}

// blockedOnSem is a placeholder resume; admit() replaces it with the user
// continuation before the wake, so running it means a bookkeeping bug.
func blockedOnSem() {
	panic("kernel: sem waiter resumed without grant")
}

// ReleaseRead drops a shared hold.
func (s *RWSem) ReleaseRead() {
	if s.readers <= 0 {
		panic("kernel: ReleaseRead without readers")
	}
	s.readers--
	s.admit()
}

// ReleaseWrite drops the exclusive hold.
func (s *RWSem) ReleaseWrite() {
	if !s.writer {
		panic("kernel: ReleaseWrite without writer")
	}
	s.writer = false
	s.admit()
}

// HeldForWrite reports whether a writer currently holds the lock.
func (s *RWSem) HeldForWrite() bool { return s.writer }

// Readers reports the current shared-hold count.
func (s *RWSem) Readers() int { return s.readers }

// admit grants the lock to the next eligible waiters: one writer, or the
// leading run of readers. The lock-state transition happens here, at grant
// time; the waiting thread resumes on its core afterwards.
func (s *RWSem) admit() {
	if s.writer {
		return
	}
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if w.write {
			if s.readers > 0 {
				return
			}
			s.writer = true
			s.waiters = slices.Delete(s.waiters, 0, 1)
			w.th.resume = w.grant
			s.k.wake(w.th)
			return
		}
		s.readers++
		s.waiters = slices.Delete(s.waiters, 0, 1)
		w.th.resume = w.grant
		s.k.wake(w.th)
	}
}
