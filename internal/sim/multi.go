package sim

import (
	"runtime"
	"sync"
	"time"
)

// This file is the sharded bulk-execution layer: many *independent*
// simulations spread across a small worker pool, one whole run per shard
// slot. Bulk workloads (experiment trials, Monte Carlo sweeps) get their
// parallelism here, across runs, never inside one run.

// ShardStats aggregates the runs one shard (worker) executed.
type ShardStats struct {
	Shard      int
	Runs       int
	Messages   int64
	Bits       int64
	Deliveries int64
	BusyRounds int64
	FaultDrops int64
	Elapsed    time.Duration
}

// MultiRunner executes a batch of independent simulations across a worker
// pool with per-shard metrics aggregation. Jobs are sharded round-robin:
// shard s runs jobs i with i % shards == s, so the job-to-shard assignment
// (and with it every job's execution environment) is deterministic in the
// batch size and worker count, and results are returned indexed by job —
// independent of scheduling order.
type MultiRunner struct {
	// Workers is the shard count (0 = runtime.NumCPU()).
	Workers int
}

// RunBatch executes jobs 0..n-1. fn runs one whole simulation (typically
// Config + processes + Run on the sequential engine) and returns its
// metrics; it is invoked on the owning shard's goroutine. The returned
// metrics are indexed by job. The first error by job index aborts that
// shard and is returned; other shards finish their current job and stop.
func (mr *MultiRunner) RunBatch(n int, fn func(job int) (Metrics, error)) ([]Metrics, []ShardStats, error) {
	if n <= 0 {
		return nil, nil, nil
	}
	shards := mr.Workers
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	if shards > n {
		shards = n
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		failed  = false
		errJob  int
		jobErr  error
		metrics = make([]Metrics, n)
		stats   = make([]ShardStats, shards)
	)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := &stats[s]
			st.Shard = s
			start := time.Now()
			for i := s; i < n; i += shards {
				mu.Lock()
				stop := failed
				mu.Unlock()
				if stop {
					break
				}
				m, err := fn(i)
				if err != nil {
					mu.Lock()
					if !failed || i < errJob {
						failed, errJob, jobErr = true, i, err
					}
					mu.Unlock()
					break
				}
				metrics[i] = m
				st.Runs++
				st.Messages += m.Messages
				st.Bits += m.Bits
				st.Deliveries += m.Deliveries
				st.BusyRounds += m.BusyRounds
				st.FaultDrops += m.FaultDrops
			}
			st.Elapsed = time.Since(start)
		}(s)
	}
	wg.Wait()
	if failed {
		return metrics, stats, jobErr
	}
	return metrics, stats, nil
}
