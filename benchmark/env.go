package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ldbcsnb/internal/bench"
	"ldbcsnb/internal/driver"
	"ldbcsnb/internal/ids"
	"ldbcsnb/internal/schema"
	"ldbcsnb/internal/store"
	"ldbcsnb/internal/workload"
)

// walOptions is the fixed flush policy of update-wal: a commit is
// acknowledged once its redo record is deposited with the group-commit
// batcher, every batch is written to the OS at once, and fsync happens at
// segment rotation, checkpoint and close; one WAL lane, 1 MiB segments and a
// background checkpoint every 50000 commits, so a run sees dozens of
// rotations and several checkpoints. Acknowledging at fsync instead
// (SyncCommit) makes every op one fsync of this box's disk, whose latency
// drifts 3x within seconds on an idle machine (README.md, "Flush policy").
var walOptions = store.PersistOptions{
	WALSync:           store.SyncFlush,
	WALLanes:          1,
	SegmentBytes:      1 << 20,
	CheckpointBytes:   -1,
	CheckpointCommits: 50000,
}

// datasetSeed generates the social network of every run. The dataset is the
// fixture, not the input: at 1000 persons its size moves by +-10% from one
// generator seed to the next (heap, set-up time and scan-bound throughput
// with it), which would drown every comparison made across -seed values.
// -seed drives everything the program is asked to do on that network: the
// curated pools' random draws, schedules, bindings, walks and request seeds.
const datasetSeed = 1

// dataset is one generated, loaded and curated environment: what every
// workload starts from, and what setup_s pays for.
type dataset struct {
	store   *store.Store
	persist *store.Persistent // persistent builds only
	dir     string            // persistent builds only
	pools   *workload.ParamPools
	updates []schema.Update
	view    *store.SnapshotView // the first view, frozen at the bulk-load clock

	generate, load, curate, firstView time.Duration
}

func (d *dataset) buildTime() time.Duration {
	return d.generate + d.load + d.curate + d.firstView
}

// build generates the dataset, bulk-loads it, curates the parameter pools
// and takes the first view. A persistent build opens the store on a data
// directory, loads through the WAL and skips curation, which only reads
// need. The raw dataset is dropped afterwards: update payloads are copied
// out of its arrays so that the heap the run measures is the store's.
func build(cfg *config, persistent bool) (*dataset, error) {
	d := &dataset{}
	t0 := time.Now()
	env := bench.NewEnvData(cfg.persons, datasetSeed)
	t1 := time.Now()
	if persistent {
		dir, err := os.MkdirTemp(cfg.outDir, "data-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		p, _, err := store.Open(filepath.Join(dir, "live"), walOptions, schema.RegisterIndexes)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("open the store on %s: %w", dir, err)
		}
		d.persist, d.store = p, p.Store
	} else {
		d.store = store.New()
		schema.RegisterIndexes(d.store)
	}
	if err := env.LoadInto(d.store); err != nil {
		d.close()
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	t2 := time.Now()
	if !persistent {
		d.pools = driver.PreparePools(env.Full, cfg.seed, false)
	}
	t3 := time.Now()
	d.view, _ = d.store.AcquireView()
	t4 := time.Now()
	d.generate, d.load, d.curate, d.firstView = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	d.updates = detach(env.Updates)
	return d, nil
}

func (d *dataset) close() {
	if d.persist != nil {
		d.persist.Close() // the directory is deleted next; nothing to keep durable
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// detach copies every update's payload out of the generated dataset's
// arrays, which the payload pointers would otherwise keep alive.
func detach(updates []schema.Update) []schema.Update {
	out := make([]schema.Update, len(updates))
	for i, u := range updates {
		switch {
		case u.Person != nil:
			c := *u.Person
			u.Person = &c
		case u.Like != nil:
			c := *u.Like
			u.Like = &c
		case u.Forum != nil:
			c := *u.Forum
			u.Forum = &c
		case u.Membership != nil:
			c := *u.Membership
			u.Membership = &c
		case u.Post != nil:
			c := *u.Post
			u.Post = &c
		case u.Comment != nil:
			c := *u.Comment
			u.Comment = &c
		case u.Friendship != nil:
			c := *u.Friendship
			u.Friendship = &c
		}
		out[i] = u
	}
	return out
}

// present reports whether the entity an update created is visible to r.
func present(r store.Reader, u *schema.Update) bool {
	hasEdge := func(es []store.Edge, to ids.ID) bool {
		for _, e := range es {
			if e.To == to {
				return true
			}
		}
		return false
	}
	switch u.Type {
	case schema.UpdateAddPerson:
		return r.Exists(u.Person.ID)
	case schema.UpdateAddForum:
		return r.Exists(u.Forum.ID)
	case schema.UpdateAddPost:
		return r.Exists(u.Post.ID)
	case schema.UpdateAddComment:
		return r.Exists(u.Comment.ID)
	case schema.UpdateAddLikePost, schema.UpdateAddLikeComment:
		return hasEdge(r.Out(u.Like.Person, store.EdgeLikes), u.Like.Message)
	case schema.UpdateAddMembership:
		return hasEdge(r.Out(u.Membership.Forum, store.EdgeHasMember), u.Membership.Person)
	case schema.UpdateAddFriendship:
		return hasEdge(r.Out(u.Friendship.A, store.EdgeKnows), u.Friendship.B)
	}
	return false
}
