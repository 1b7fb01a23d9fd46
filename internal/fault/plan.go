package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpcio/das/internal/sim"
)

// Kind enumerates the injectable fault types.
type Kind int

const (
	// Crash takes a storage server down: it stops receiving, its replies
	// are lost, and reads fail over to replicas.
	Crash Kind = iota
	// Restart brings a crashed server back with its stored strips intact
	// (the store models a persistent disk that survives the outage).
	Restart
	// SlowDisk scales a server's disk bandwidth by Factor.
	SlowDisk
	// SlowNIC scales a server's NIC bandwidth by Factor.
	SlowNIC
	// Loss drops (or, with Delay set, delays) each remote message
	// independently with probability Frac.
	Loss
)

var kindNames = [...]string{
	Crash:    "crash",
	Restart:  "restart",
	SlowDisk: "slowdisk",
	SlowNIC:  "slownic",
	Loss:     "loss",
}

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one planned fault, applied At simulated time after the plan is
// installed. Server is a dense storage-server index (0-based, as printed
// by dasctl), or -1 for cluster-wide faults like Loss.
type Event struct {
	At     sim.Time
	Kind   Kind
	Server int
	Factor float64  // SlowDisk, SlowNIC
	Frac   float64  // Loss
	Delay  sim.Time // Loss: delay instead of drop
}

// String renders the event in spec syntax.
func (e Event) String() string {
	at := time.Duration(e.At).String()
	switch e.Kind {
	case SlowDisk, SlowNIC:
		return fmt.Sprintf("%s@%s:s%d*%g", e.Kind, at, e.Server, e.Factor)
	case Loss:
		if e.Delay > 0 {
			return fmt.Sprintf("loss@%s:%g/%s", at, e.Frac, time.Duration(e.Delay))
		}
		return fmt.Sprintf("loss@%s:%g", at, e.Frac)
	default:
		return fmt.Sprintf("%s@%s:s%d", e.Kind, at, e.Server)
	}
}

// Plan is a reproducible fault schedule. Seed, when non-zero, reseeds the
// cluster's fault randomness at installation so message-loss draws are a
// pure function of the plan.
type Plan struct {
	Seed   int64
	Events []Event
}

// String renders the plan in the syntax ParsePlan accepts.
func (p Plan) String() string {
	parts := make([]string, 0, len(p.Events)+1)
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed:%d", p.Seed))
	}
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ",")
}

// Sorted returns the events ordered by time, keeping spec order for ties.
func (p Plan) Sorted() []Event {
	out := make([]Event, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks the plan against a cluster with the given number of
// storage servers.
func (p Plan) Validate(servers int) error {
	for _, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %v: negative time", e)
		}
		switch e.Kind {
		case Crash, Restart:
			if e.Server < 0 || e.Server >= servers {
				return fmt.Errorf("fault: event %v: server index out of range [0,%d)", e, servers)
			}
		case SlowDisk, SlowNIC:
			if e.Server < 0 || e.Server >= servers {
				return fmt.Errorf("fault: event %v: server index out of range [0,%d)", e, servers)
			}
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("fault: event %v: factor must be in (0,1]", e)
			}
		case Loss:
			if e.Frac < 0 || e.Frac > 1 {
				return fmt.Errorf("fault: event %v: loss fraction must be in [0,1]", e)
			}
			if e.Delay < 0 {
				return fmt.Errorf("fault: event %v: negative delay", e)
			}
		default:
			return fmt.Errorf("fault: event %v: unknown kind", e)
		}
	}
	return nil
}

// ParsePlan parses a comma-separated fault plan, e.g.
//
//	seed:7,crash@50ms:s2,restart@120ms:s2,slowdisk@0s:s1*0.25,loss@0s:0.01/2ms
//
// Entries:
//
//	crash@DUR:sN       crash storage server N at DUR after installation
//	restart@DUR:sN     bring server N back up
//	slowdisk@DUR:sN*F  scale server N's disk bandwidth by F in (0,1]
//	slownic@DUR:sN*F   scale server N's NIC bandwidth by F in (0,1]
//	loss@DUR:F[/DUR2]  drop each message with probability F (delay by DUR2
//	                   instead of dropping when given); F=0 clears
//	seed:N             seed for the loss randomness (defaults to 1)
//
// Durations use Go syntax (50ms, 1.5s). Server indices are the dense
// storage-server indices dasctl prints, not cluster node ids.
func ParsePlan(spec string) (Plan, error) {
	var plan Plan
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(item, "seed:"); ok {
			seed, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: bad seed %q: %v", item, err)
			}
			plan.Seed = seed
			continue
		}
		kindStr, rest, ok := strings.Cut(item, "@")
		if !ok {
			return Plan{}, fmt.Errorf("fault: %q: want kind@duration:arg", item)
		}
		var kind Kind = -1
		for k, name := range kindNames {
			if kindStr == name {
				kind = Kind(k)
				break
			}
		}
		if kind < 0 {
			return Plan{}, fmt.Errorf("fault: %q: unknown fault kind %q", item, kindStr)
		}
		atStr, arg, ok := strings.Cut(rest, ":")
		if !ok {
			return Plan{}, fmt.Errorf("fault: %q: want kind@duration:arg", item)
		}
		at, err := time.ParseDuration(atStr)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: %q: bad time: %v", item, err)
		}
		ev := Event{At: sim.Time(at), Kind: kind, Server: -1}
		switch kind {
		case Crash, Restart:
			ev.Server, err = parseServer(arg)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: %q: %v", item, err)
			}
		case SlowDisk, SlowNIC:
			srvStr, facStr, ok := strings.Cut(arg, "*")
			if !ok {
				return Plan{}, fmt.Errorf("fault: %q: want sN*factor", item)
			}
			ev.Server, err = parseServer(srvStr)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: %q: %v", item, err)
			}
			ev.Factor, err = strconv.ParseFloat(facStr, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: %q: bad factor: %v", item, err)
			}
		case Loss:
			fracStr, delayStr, hasDelay := strings.Cut(arg, "/")
			ev.Frac, err = strconv.ParseFloat(fracStr, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: %q: bad fraction: %v", item, err)
			}
			if hasDelay {
				d, err := time.ParseDuration(delayStr)
				if err != nil {
					return Plan{}, fmt.Errorf("fault: %q: bad delay: %v", item, err)
				}
				ev.Delay = sim.Time(d)
			}
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan, nil
}

func parseServer(s string) (int, error) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(s), "s")
	if !ok {
		return 0, fmt.Errorf("server must look like s2, got %q", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad server index %q", s)
	}
	return n, nil
}
