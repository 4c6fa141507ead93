package lts

import "repro/internal/lotos"

// Hooks into the monitor cache for the external test package.

// MonitorCacheSize is the cache's bound.
const MonitorCacheSize = monitorCacheSize

// CachedMonitor returns the monitor cached for the service's content, or
// nil.
func CachedMonitor(sp *lotos.Spec) *Monitor { return monitors.get(specDigest(sp)) }

// MonitorCacheLen returns the number of cached monitors, failing the
// caller's consistency expectations with -1 when the map and the recency
// list disagree.
func MonitorCacheLen() int {
	monitors.mu.Lock()
	defer monitors.mu.Unlock()
	if len(monitors.byKey) != len(monitors.lru) {
		return -1
	}
	return len(monitors.byKey)
}

// ResetMonitorCache empties the cache.
func ResetMonitorCache() {
	monitors.mu.Lock()
	defer monitors.mu.Unlock()
	clear(monitors.byKey)
	monitors.lru = nil
}

// MonitorStates returns the number of states the monitor holds.
func MonitorStates(m *Monitor) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sub.g.NumStates()
}
