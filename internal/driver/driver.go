package driver

import (
	"sync"
	"sync/atomic"
	"time"

	"ldbcsnb/internal/datagen"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// Connector executes one update operation against the System Under Test.
type Connector interface {
	Execute(op *schema.Update) error
}

// StoreConnector runs updates against the embedded graph store.
type StoreConnector struct {
	Store *store.Store
}

// Execute applies the update as one ACID transaction.
func (c *StoreConnector) Execute(op *schema.Update) error {
	return workload.ApplyUpdate(c.Store, op)
}

// SleepConnector is the dummy connector of the §4.2 scalability experiment
// ("rather than executing transactions against a database, simply sleeps
// for a configured duration"). It simulates a SUT whose mean transaction
// latency is Sleep.
type SleepConnector struct {
	Sleep time.Duration
}

// Execute sleeps for the configured duration.
func (c *SleepConnector) Execute(op *schema.Update) error {
	time.Sleep(c.Sleep)
	return nil
}

// Partition splits the update stream into n parallel streams (§4.2):
// forum-partitionable operations go to the stream owning their forum
// (posts and likes form a tree rooted at the forum, so intra-forum
// dependencies stay within one sequentially executed stream); person and
// friendship operations, which touch the non-partitionable friendship
// graph, are spread by person ID and synchronised through the GDS.
// Every stream remains sorted by due time.
func Partition(updates []schema.Update, n int) [][]schema.Update {
	if n < 1 {
		n = 1
	}
	streams := make([][]schema.Update, n)
	for i := range updates {
		u := &updates[i]
		var key uint64
		if f := u.ForumOf(); f != 0 {
			key = uint64(f)
		} else {
			switch u.Type {
			case schema.UpdateAddPerson:
				key = uint64(u.Person.ID)
			case schema.UpdateAddFriendship:
				key = uint64(u.Friendship.A)
			}
		}
		// Entity IDs are time-ordered composites whose low bits are mostly
		// zero (ids.Compose); mix before reducing so streams balance.
		s := int(mix64(key) % uint64(n))
		streams[s] = append(streams[s], *u)
	}
	return streams
}

// Mode selects how streams schedule operations.
type Mode int

// Execution modes (§4.2).
const (
	// ModeUnpaced executes operations as fast as dependencies allow — the
	// configuration of the Table 5 scalability experiment.
	ModeUnpaced Mode = iota
	// ModePaced replays the stream at the configured acceleration factor
	// (simulation time / real time), the benchmark's normal operation.
	ModePaced
	// ModeWindowed groups dependent operations into T_SAFE-sized windows
	// and synchronises the GDS once per window instead of per operation,
	// reducing coordination (§4.2 "Windowed Execution").
	ModeWindowed
)

// Config parameterises a driver run.
type Config struct {
	Connector Connector
	Streams   int
	Mode      Mode
	// Acceleration is simulation-time / real-time for ModePaced (e.g. 10
	// means one simulated hour plays in six real minutes). ModeWindowed
	// windows are datagen.SafeTime wide.
	Acceleration float64
}

// Report summarises a driver run.
type Report struct {
	Operations int
	Wall       time.Duration
	// OpsPerSec is the executed operation throughput (the Table 5 metric).
	OpsPerSec float64
	// Errors counts the operations whose Connector.Execute returned an
	// error; they are included in Operations.
	Errors int
}

// Run executes a pre-partitioned update stream to completion.
func Run(cfg Config, streams [][]schema.Update) Report {
	return replay(cfg, streams, nil)
}

// replay is the driver's one scheduler: every stream runs on its own
// goroutine under GDS/LDS dependency tracking. A closed stop channel makes
// each stream abandon the rest of its schedule at its next operation
// boundary, never an operation in flight; a nil stop never fires. The
// report counts only the operations that executed.
func replay(cfg Config, streams [][]schema.Update, stop <-chan struct{}) Report {
	gds := NewGDS(len(streams))
	start := time.Now()
	var wg sync.WaitGroup
	var executed, errs atomic.Int64
	const safe = datagen.SafeTime

	// Pacing: map simulation due time to wall-clock time.
	var simStart int64 = 1<<63 - 1
	for _, s := range streams {
		if len(s) > 0 && s[0].DueTime < simStart {
			simStart = s[0].DueTime
		}
	}
	wallStart := time.Now()
	waitDue := func(due int64) {
		if cfg.Mode != ModePaced || cfg.Acceleration <= 0 {
			return
		}
		realOffset := time.Duration(float64(due-simStart) / cfg.Acceleration * float64(time.Millisecond))
		if d := time.Until(wallStart.Add(realOffset)); d > 0 {
			time.Sleep(d)
		}
	}

	// Dependencies created before the replayed stream (bulk-loaded data)
	// are satisfied by definition.
	gds.SetFloor(simStart - 1)
	// Announce each stream's dependency schedule so T_GC can run ahead of
	// stream positions (see LDS.SetSchedule).
	for i, s := range streams {
		gds.Stream(i).SetSchedule(dependencySchedule(s))
	}
	gds.Refresh()

	for i := range streams {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			lds := gds.Stream(idx)
			ops := streams[idx]
			var n, failed int64
			for j := range ops {
				op := &ops[j]
				isDep := op.Type == schema.UpdateAddPerson

				if op.DepTime > 0 {
					// Figure 8: dependents wait for the GDS watermark. In
					// windowed mode the wait target is the start of the
					// dependent's own T_SAFE window: the generator
					// guarantees dep <= due - T_SAFE, so every dependency
					// lies strictly before that window — consecutive
					// dependents in one window share one wait target and
					// synchronise at most once.
					dep := op.DepTime
					if cfg.Mode == ModeWindowed {
						if target := op.DueTime/safe*safe - 1; target > dep {
							dep = target
						}
					}
					gds.WaitUntil(dep)
				}
				waitDue(op.DueTime)
				// The stop check follows the waits: a stopped sibling
				// releases dependencies it never executed (lds.Finish
				// below), and a dependent woken by that release must not
				// run. Initiate follows the check: the announced schedule
				// already holds this stream's T_LI at a pending
				// dependency's due time, so initiating after the wait
				// moves no watermark.
				if stopped(stop) {
					break
				}
				if isDep {
					lds.Initiate(op.DueTime)
					gds.Refresh()
				}

				if err := cfg.Connector.Execute(op); err != nil {
					failed++
				}
				n++

				if isDep {
					lds.Complete(op.DueTime)
					gds.Refresh()
				}
			}
			lds.Finish()
			gds.Refresh()
			executed.Add(n)
			errs.Add(failed)
		}(i)
	}
	wg.Wait()

	wall := time.Since(start)
	r := Report{Operations: int(executed.Load()), Wall: wall, Errors: int(errs.Load())}
	if wall > 0 {
		r.OpsPerSec = float64(r.Operations) / wall.Seconds()
	}
	return r
}

// stopped polls a stop channel without blocking; a nil channel never
// fires.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// mix64 is the splitmix64 finaliser, used to spread structured entity IDs
// uniformly over streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dependencySchedule extracts the due times of a stream's Dependencies
// operations (person creations), in stream order (non-decreasing).
func dependencySchedule(ops []schema.Update) []int64 {
	var dues []int64
	for i := range ops {
		if ops[i].Type == schema.UpdateAddPerson {
			dues = append(dues, ops[i].DueTime)
		}
	}
	return dues
}

// ValidateStreams checks the invariants Partition promises: per-stream due
// times are non-decreasing and forum-partitionable operations of one forum
// share a stream. It returns the number of violations (0 = valid).
func ValidateStreams(streams [][]schema.Update) int {
	violations := 0
	forumStream := map[ids.ID]int{}
	for si, s := range streams {
		var prev int64 = -1 << 62
		for i := range s {
			if s[i].DueTime < prev {
				violations++
			}
			prev = s[i].DueTime
			if f := s[i].ForumOf(); f != 0 {
				if prevSi, ok := forumStream[f]; ok && prevSi != si {
					violations++
				}
				forumStream[f] = si
			}
		}
	}
	return violations
}
