package obs

import (
	"runtime"
	"time"
)

// RuntimeCollector samples the Go runtime into gauges on a registry:
// goroutine count, heap size and object count, GC cycle count and the
// most recent GC pause. It collects only when asked — hook Collect into
// a Rollup so the gauges refresh once per window instead of on every
// scrape.
type RuntimeCollector struct {
	goroutines  *GaugeChild
	heapAlloc   *GaugeChild
	heapObjects *GaugeChild
	sysBytes    *GaugeChild
	gcCycles    *GaugeChild
	gcPause     *GaugeChild
}

// NewRuntimeCollector registers the pdcu_runtime_* gauges on reg.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	return &RuntimeCollector{
		goroutines: reg.Gauge("pdcu_runtime_goroutines",
			"Goroutines currently live.").With(),
		heapAlloc: reg.Gauge("pdcu_runtime_heap_alloc_bytes",
			"Bytes of allocated heap objects.").With(),
		heapObjects: reg.Gauge("pdcu_runtime_heap_objects",
			"Number of allocated heap objects.").With(),
		sysBytes: reg.Gauge("pdcu_runtime_sys_bytes",
			"Total bytes obtained from the OS.").With(),
		gcCycles: reg.Gauge("pdcu_runtime_gc_cycles",
			"Completed GC cycles since process start.").With(),
		gcPause: reg.Gauge("pdcu_runtime_gc_pause_seconds",
			"Duration of the most recent GC stop-the-world pause.").With(),
	}
}

// Collect samples the runtime once. ReadMemStats briefly stops the
// world, so call it at a windowed cadence, not per request.
func (c *RuntimeCollector) Collect() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.goroutines.Set(float64(runtime.NumGoroutine()))
	c.heapAlloc.Set(float64(ms.HeapAlloc))
	c.heapObjects.Set(float64(ms.HeapObjects))
	c.sysBytes.Set(float64(ms.Sys))
	c.gcCycles.Set(float64(ms.NumGC))
	if ms.NumGC > 0 {
		c.gcPause.Set(time.Duration(ms.PauseNs[(ms.NumGC+255)%256]).Seconds())
	}
}
