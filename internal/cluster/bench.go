package cluster

import "github.com/hpcio/das/internal/metrics"

// This file exists only for the bench/ module, whose harness reads these
// ten counts through Cluster.Recovery, CacheStats and RestripeStats. Each
// getter is one read of the registry and returns 0 for a subsystem that was
// not deployed. No product code or test calls them; the file goes when
// ROADMAP item 3 moves bench/ onto the scenario runner.

// RecoveryView reads the recovery.* counters.
type RecoveryView struct{ r *metrics.Registry }

func (v RecoveryView) Retries() int64         { return v.r.Get("recovery.retries") }
func (v RecoveryView) Timeouts() int64        { return v.r.Get("recovery.timeouts") }
func (v RecoveryView) FailoverReads() int64   { return v.r.Get("recovery.failover_reads") }
func (v RecoveryView) ExecRetries() int64     { return v.r.Get("recovery.exec_retries") }
func (v RecoveryView) DroppedMessages() int64 { return v.r.Get("recovery.dropped_messages") }

// CacheView reads the cache.* counters.
type CacheView struct{ r *metrics.Registry }

func (v CacheView) HitBytes() int64  { return v.r.Get("cache.hit_bytes") }
func (v CacheView) MissBytes() int64 { return v.r.Get("cache.miss_bytes") }
func (v CacheView) Evictions() int64 { return v.r.Get("cache.evictions") }

// RestripeView reads the restripe.* counters.
type RestripeView struct{ r *metrics.Registry }

func (v RestripeView) Planned() int64   { return v.r.Get("restripe.planned") }
func (v RestripeView) Completed() int64 { return v.r.Get("restripe.completed") }
