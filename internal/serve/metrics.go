package serve

// Metric names registered by the serving layer. Single-sourced here so
// ggvet's telemetryname pass can hold the registration sites and the
// checked-in inventory (internal/telemetry/inventory.txt) to one set
// of spellings.
const (
	// Job lifecycle.
	MetricJobsSubmitted = "serve.jobs_submitted"
	MetricJobsCompleted = "serve.jobs_completed"
	MetricJobsFailed    = "serve.jobs_failed"
	MetricJobsCancelled = "serve.jobs_cancelled"
	MetricJobsRejected  = "serve.jobs_rejected"
	MetricJobsInFlight  = "serve.jobs_in_flight"

	// Failover: local runs that resumed from a keyed checkpoint (on a
	// failover, the dead owner's latest).
	MetricResumes = "serve.resumes"

	// Latency breakdown.
	MetricQueueWaitMS = "serve.queue_wait_ms"
	MetricRunWallMS   = "serve.run_wall_ms"

	// Dedup accounting. MetricSimulations counts jobs the engine
	// actually ran on this replica — not cache hits, coalesced
	// duplicates, or peer-served results — so summing it across a
	// cluster proves each distinct config simulated once fleet-wide.
	// MetricDedupInflight counts submissions coalesced onto an
	// identical job already executing (single-flight dedup).
	MetricSimulations   = "serve.simulations"
	MetricDedupInflight = "serve.dedup_inflight"

	// Result cache.
	MetricCacheHits      = "serve.cache_hits"
	MetricCacheMisses    = "serve.cache_misses"
	MetricCacheEvictions = "serve.cache_evictions"
	MetricCacheEntries   = "serve.cache_entries"
)
