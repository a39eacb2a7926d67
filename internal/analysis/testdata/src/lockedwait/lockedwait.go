// Golden cases for the lockedwait analyzer: never park at a barrier
// while holding a lock.
package lockedwait

import (
	"context"
	"sync"

	"thriftybarrier/thrifty"
)

func flaggedSyncMutex(b *thrifty.Barrier, mu *sync.Mutex) {
	mu.Lock()
	b.Wait() // want `\(\*thrifty\.Barrier\)\.Wait called while mutex "mu" is held`
	mu.Unlock()
}

func flaggedDeferred(b *thrifty.Barrier, ctx context.Context) error {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()         // held to function end...
	return b.WaitContext(ctx) // want `\(\*thrifty\.Barrier\)\.WaitContext called while mutex "mu" is held`
}

func flaggedRLock(b *thrifty.Barrier, rw *sync.RWMutex) {
	rw.RLock()
	b.WaitSite(1) // want `\(\*thrifty\.Barrier\)\.WaitSite called while mutex "rw" is held`
	rw.RUnlock()
}

type server struct {
	mu sync.Mutex
	b  *thrifty.Barrier
}

func (s *server) flaggedField() {
	s.mu.Lock()
	s.b.Wait() // want `\(\*thrifty\.Barrier\)\.Wait called while mutex "s\.mu" is held`
	s.mu.Unlock()
}

// flaggedBranchRelease unlocks on one path only: after the join the
// lock is still may-held, so the wait is flagged. (The pre-CFG scanner
// missed this: the in-order scan saw the Unlock and cleared the set.)
func flaggedBranchRelease(b *thrifty.Barrier, mu *sync.Mutex, done bool) {
	mu.Lock()
	if done {
		mu.Unlock()
	}
	b.Wait() // want `\(\*thrifty\.Barrier\)\.Wait called while mutex "mu" is held`
}

// flaggedLoopCarried holds the lock across the loop's back edge: the
// wait on iteration n+1 runs under the Lock taken on iteration n. (In
// source order the Wait precedes the Lock, so only a flow over the back
// edge can see it.)
func flaggedLoopCarried(b *thrifty.Barrier, mu *sync.Mutex, again func() bool) {
	for again() {
		b.Wait() // want `\(\*thrifty\.Barrier\)\.Wait called while mutex "mu" is held`
		mu.Lock()
	}
	mu.Unlock()
}

// --- clean cases ---

// cleanGotoSkipsLock never executes the Lock: the goto jumps over it,
// and dead code must not poison the label's join point. (The pre-CFG
// scanner flagged this: the in-order scan saw the Lock regardless.)
func cleanGotoSkipsLock(b *thrifty.Barrier, mu *sync.Mutex) {
	goto wait
	mu.Lock()
wait:
	b.Wait()
}

func cleanUnlockFirst(b *thrifty.Barrier, mu *sync.Mutex) {
	mu.Lock()
	// critical section
	mu.Unlock()
	b.Wait()
}

func cleanGoroutine(b *thrifty.Barrier, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	// The literal runs on another goroutine's stack: it does not hold mu.
	go func() {
		b.Wait()
	}()
}

func cleanBalancedBranch(b *thrifty.Barrier, mu *sync.Mutex, fast bool) {
	if fast {
		mu.Lock()
		mu.Unlock()
	}
	b.Wait()
}
