package dtree

import (
	"runtime"
	"sync"
)

// Worker pools for forest training and permutation importance (the tree
// build sizes its spawn semaphore with clampWorkers). Each task writes its
// result at its own index, so the output is identical at every worker count.

// clampWorkers resolves a worker-count option against the task size: values
// <= 0 select GOMAXPROCS, and the count never exceeds n (one unit of work
// per worker minimum).
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forEachChunk runs fn over [0, n) split into near-equal contiguous chunks,
// one per worker, and waits for all of them.
func forEachChunk(n, workers int, fn func(lo, hi int)) {
	workers = clampWorkers(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
