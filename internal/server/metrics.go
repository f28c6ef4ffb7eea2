package server

import (
	"sync"

	"agcm/internal/metrics"
)

// jobBuckets are the latency histograms' upper bounds in seconds.
var jobBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}

// probes are the scrape-time reads into the rest of the server; tests
// substitute constants.
type probes struct {
	queueDepth, inflight, cacheEntries, cacheEvicted func() int64
	draining                                         func() bool
	// scheduler is the admission policy's name, emitted as an info metric.
	scheduler string
	// disk is nil when the disk tier is off: its families are then not
	// registered, so a daemon without a cache directory scrapes exactly as
	// it did before the tier existed.
	disk *diskProbes
}

type diskProbes struct{ entries, bytes, evicted, corrupt func() int64 }

// serverMetrics declares agcmd's metric families, in /metrics order.
type serverMetrics struct {
	reg *metrics.Registry
	// requests counts by result label: hit, miss, coalesced, shed, ...
	requests *metrics.Counter
	runs     *metrics.Counter // simulations actually executed
	runErrs  *metrics.Counter // runs that returned an error (timeouts included)
	// jobSeconds is the execution-latency histogram.
	jobSeconds *metrics.Histogram
	// classRequests counts every validated request by SLO class — hits,
	// coalesced joins and sheds included, so a load client's per-class
	// ledger reconciles exactly.  classJobSeconds is the executed-job
	// latency (queue wait + execution) by class.
	classRequests   *metrics.Counter
	classJobSeconds *metrics.Histogram

	// slowMu guards the per-class wait and execution sums behind the
	// agcmd_max_class_slowdown gauge.
	slowMu     sync.Mutex
	wait, exec [numClasses]float64
}

func newMetrics(p probes) *serverMetrics {
	r := metrics.New()
	m := &serverMetrics{reg: r}
	m.requests = r.Counter("agcmd_requests_total", "Simulation requests by outcome.", "result")
	m.runs = r.Counter("agcmd_runs_total", "Simulations executed (cache misses that reached a worker).")
	m.runErrs = r.Counter("agcmd_run_errors_total", "Executed simulations that returned an error.")
	r.IntFunc("agcmd_queue_depth", "Jobs admitted but not yet running.", "gauge", p.queueDepth)
	r.IntFunc("agcmd_inflight_jobs", "Jobs currently executing on workers.", "gauge", p.inflight)
	r.IntFunc("agcmd_cache_entries", "Result-cache entries resident.", "gauge", p.cacheEntries)
	r.IntFunc("agcmd_cache_evictions_total", "Result-cache LRU evictions.", "counter", p.cacheEvicted)
	r.IntFunc("agcmd_draining", "Whether the daemon is draining (1) or serving (0).", "gauge", func() int64 {
		if p.draining() {
			return 1
		}
		return 0
	})
	if p.disk != nil {
		r.IntFunc("agcmd_disk_cache_entries", "Disk-tier frames resident.", "gauge", p.disk.entries)
		r.IntFunc("agcmd_disk_cache_bytes", "Disk-tier bytes resident.", "gauge", p.disk.bytes)
		r.IntFunc("agcmd_disk_cache_evictions_total", "Disk-tier budget evictions.", "counter", p.disk.evicted)
		r.IntFunc("agcmd_disk_cache_corrupt_total", "Disk-tier frames dropped for failing validation.", "counter", p.disk.corrupt)
	}
	m.jobSeconds = r.Histogram("agcmd_job_seconds", "Simulation execution latency.", jobBuckets)
	// Per-class families are appended after the historical layout so a
	// scrape of a daemon that never saw an SLO-classed request still starts
	// with exactly the bytes it always produced.
	r.IntVecFunc("agcmd_scheduler_info", "Admission scheduler policy (always 1).", "gauge", "scheduler",
		func(emit func(string, int64)) { emit(p.scheduler, 1) })
	m.classRequests = r.Counter("agcmd_class_requests_total", "Validated requests by SLO class.", "class")
	m.classJobSeconds = r.Histogram("agcmd_class_job_seconds",
		"Executed-job latency (queue wait + execution) by SLO class.", jobBuckets, "class")
	r.FloatFunc("agcmd_max_class_slowdown", "Max over classes of (wait+exec)/exec — the fairness metric.", m.maxClassSlowdown)
	return m
}

// observeJob records one executed job: its execution time, and against its
// SLO class the end-to-end latency inside the daemon (queue wait plus
// execution) and the two sums the slowdown gauge divides.
func (m *serverMetrics) observeJob(class SLOClass, waitSeconds, execSeconds float64) {
	m.jobSeconds.Observe(execSeconds)
	m.classJobSeconds.Observe(waitSeconds+execSeconds, class.String())
	m.slowMu.Lock()
	m.wait[class] += waitSeconds
	m.exec[class] += execSeconds
	m.slowMu.Unlock()
}

func (m *serverMetrics) maxClassSlowdown() float64 {
	m.slowMu.Lock()
	defer m.slowMu.Unlock()
	worst := 0.0
	for c, exec := range m.exec {
		if exec > 0 {
			if s := (m.wait[c] + exec) / exec; s > worst {
				worst = s
			}
		}
	}
	return worst
}

// AvgJobSeconds returns the mean observed job latency (0 before any job):
// the admission layer's input for the Retry-After estimate.
func (m *serverMetrics) AvgJobSeconds() float64 {
	count, sum := m.jobSeconds.Snapshot()
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
