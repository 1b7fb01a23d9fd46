package cluster

import (
	"fmt"

	"github.com/hpcio/das/internal/fault"
	"github.com/hpcio/das/internal/metrics"
)

// ServerDown reports whether dense storage server s is currently crashed.
func (c *Cluster) ServerDown(s int) bool {
	return c.Faults.Down(c.StorageID(s))
}

// AnyStorageDown reports whether any storage server is currently crashed.
// It is the cheap gate the offload layers use before switching to their
// degraded paths.
func (c *Cluster) AnyStorageDown() bool {
	if !c.Faults.Active() {
		return false
	}
	for s := 0; s < c.Cfg.StorageNodes; s++ {
		if c.Faults.Down(c.StorageID(s)) {
			return true
		}
	}
	return false
}

// ApplyFault applies one fault event to the cluster immediately and
// records it in the fault log. Event times are ignored here; scheduling is
// InstallFaultPlan's job.
func (c *Cluster) ApplyFault(ev fault.Event) error {
	rec := metrics.FaultRecord{AtNs: int64(c.Eng.Now()), Kind: ev.Kind.String(), Node: -1}
	switch ev.Kind {
	case fault.Crash:
		id := c.StorageID(ev.Server)
		c.Faults.SetDown(id, true)
		rec.Node = id
		rec.Detail = fmt.Sprintf("server %d", ev.Server)
	case fault.Restart:
		id := c.StorageID(ev.Server)
		c.Faults.SetDown(id, false)
		rec.Node = id
		rec.Detail = fmt.Sprintf("server %d", ev.Server)
	case fault.SlowDisk:
		id := c.StorageID(ev.Server)
		c.Disk(id).SetSpeedFactor(ev.Factor)
		c.Faults.MarkActive()
		rec.Node = id
		rec.Detail = fmt.Sprintf("server %d ×%g", ev.Server, ev.Factor)
	case fault.SlowNIC:
		id := c.StorageID(ev.Server)
		c.Faults.SetNICFactor(id, ev.Factor)
		rec.Node = id
		rec.Detail = fmt.Sprintf("server %d ×%g", ev.Server, ev.Factor)
	case fault.Loss:
		c.Faults.SetLoss(ev.Frac, ev.Delay)
		rec.Detail = fmt.Sprintf("frac %g delay %v", ev.Frac, ev.Delay)
	default:
		return fmt.Errorf("cluster: unknown fault kind in %v", ev)
	}
	c.FaultLog.Record(rec)
	return nil
}

// InstallFaultPlan validates the plan against this cluster and schedules
// its events at their offsets from the current simulated time. The events
// ride daemon timers, so a plan whose tail outlives the workload never
// extends a measured run — trailing events simply don't fire. When the
// plan carries a seed, the fault randomness is reseeded so message-loss
// draws are a pure function of (plan, traffic).
func (c *Cluster) InstallFaultPlan(plan fault.Plan) error {
	if err := plan.Validate(c.Cfg.StorageNodes); err != nil {
		return err
	}
	if plan.Seed != 0 {
		c.Faults.Reseed(plan.Seed)
	}
	if len(plan.Events) > 0 {
		// Arm the fault paths now, not at the first event: a run that
		// starts before the first crash must already be using cancelable
		// waits, or the crash would strand it on the fault-free path's
		// blocking RPCs.
		c.Faults.MarkActive()
	}
	for _, ev := range plan.Sorted() {
		ev := ev
		c.Eng.AfterFuncDaemon(ev.At, func() {
			// Validate ran above; application cannot fail.
			_ = c.ApplyFault(ev)
		})
	}
	return nil
}
