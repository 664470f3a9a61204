package serve

import (
	"errors"
	"fmt"
	"time"

	"locec/internal/core"
	"locec/internal/social"
)

// mutationQueueDepth bounds the number of queued mutation jobs; beyond it
// Mutate fails fast instead of buffering unboundedly.
const mutationQueueDepth = 256

// Sentinel errors for the transient intake failures; the HTTP handler
// maps them to 503 so clients can tell back-pressure (retry later) apart
// from a genuinely conflicting batch (409).
var (
	errQueueFull    = errors.New("serve: mutation queue full")
	errServerClosed = errors.New("serve: server closed")
)

// mutationJob is one enqueued POST /v1/mutations batch.
type mutationJob struct {
	batch []core.Mutation
	done  chan mutationOutcome // buffered 1; receives exactly one outcome
}

// mutationOutcome is what the applier reports back per job.
type mutationOutcome struct {
	err   error
	epoch int64
	info  SnapshotInfo
	stats core.ApplyStats
}

// MutationReceipt is Mutate's result. For wait=true calls it describes the
// applied epoch; for asynchronous calls it acknowledges the enqueue —
// Epoch then holds the last applied epoch at enqueue time, so the batch is
// guaranteed to be included in some later epoch (poll GET /v1/stats until
// mutations.last_epoch > Epoch and mutations.pending == 0).
type MutationReceipt struct {
	// Applied is true when the batch has been applied (wait=true).
	Applied bool
	// Mutations echoes the batch size.
	Mutations int
	// Epoch: the applied epoch (Applied) or the enqueue-time token.
	Epoch int64
	// Pending is the queue depth in mutations after this call.
	Pending int64
	// Snapshot / Stats describe the published snapshot and the work done
	// (Applied only).
	Snapshot SnapshotInfo
	Stats    core.ApplyStats
}

// Mutate enqueues one mutation batch for the background applier. With
// wait=true it blocks until the batch's epoch is published (or fails) and
// returns the full receipt; otherwise it returns as soon as the batch is
// queued. Batches are applied in arrival order; bursts that queue up while
// an epoch is in flight are coalesced into the next epoch.
func (s *Server) Mutate(batch []core.Mutation, wait bool) (MutationReceipt, error) {
	if len(batch) == 0 {
		return MutationReceipt{}, fmt.Errorf("serve: empty mutation batch")
	}
	job := mutationJob{batch: batch, done: make(chan mutationOutcome, 1)}
	s.mutMu.Lock()
	if s.closed {
		s.mutMu.Unlock()
		return MutationReceipt{}, errServerClosed
	}
	// Read the token before enqueuing: the worker may apply the batch the
	// instant it is queued, and an async caller polling "last_epoch >
	// token" must never receive a token that already includes its batch.
	token := s.epochs.Load()
	select {
	case s.mutCh <- job:
		s.mutPending.Add(int64(len(batch)))
	default:
		s.mutMu.Unlock()
		return MutationReceipt{}, fmt.Errorf("%w (%d jobs)", errQueueFull, mutationQueueDepth)
	}
	s.mutMu.Unlock()
	if !wait {
		return MutationReceipt{
			Mutations: len(batch),
			Epoch:     token,
			Pending:   s.mutPending.Load(),
		}, nil
	}
	out := <-job.done
	if out.err != nil {
		return MutationReceipt{}, out.err
	}
	return MutationReceipt{
		Applied:   true,
		Mutations: len(batch),
		Epoch:     out.epoch,
		Pending:   s.mutPending.Load(),
		Snapshot:  out.info,
		Stats:     out.stats,
	}, nil
}

// mutationWorker is the background applier: it blocks for the next job,
// drains whatever burst accumulated behind it, and applies the coalesced
// batch as one epoch. On Close it drains and *applies* whatever is still
// queued before exiting.
func (s *Server) mutationWorker() {
	defer close(s.workerDone)
	for {
		select {
		case <-s.quit:
			s.drainApplyQueued()
			return
		case job := <-s.mutCh:
			jobs := []mutationJob{job}
		coalesce:
			for {
				select {
				case j := <-s.mutCh:
					jobs = append(jobs, j)
				default:
					break coalesce
				}
			}
			s.applyJobs(jobs)
		}
	}
}

// drainApplyQueued applies every job still queued at shutdown. Each of
// those jobs may already have been acknowledged with a 202, so an orderly
// Close must apply them (and, with a WAL, make them durable), not fail
// them. The drain is bounded: Close marks the server closed before
// signaling quit, and Mutate refuses new jobs once closed.
func (s *Server) drainApplyQueued() {
	var jobs []mutationJob
	for {
		select {
		case job := <-s.mutCh:
			jobs = append(jobs, job)
		default:
			if len(jobs) > 0 {
				s.applyJobs(jobs)
			}
			return
		}
	}
}

// finishJob settles one job's pending count and outcome.
func (s *Server) finishJob(job mutationJob, out mutationOutcome, failed bool) {
	s.mutPending.Add(-int64(len(job.batch)))
	if failed {
		s.mutFailed.Add(int64(len(job.batch)))
	}
	job.done <- out
}

// applyJobs applies a coalesced burst of jobs as one mutation epoch. The
// whole burst is first tried as a single concatenated batch (one dirty-set
// recompute for the entire burst); if that batch is rejected and the burst
// has several jobs, each job is retried individually so one poisoned batch
// — say, an add of an edge that already exists — cannot sink its
// neighbors. Either way at most one new snapshot is published.
func (s *Server) applyJobs(jobs []mutationJob) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	snap := s.current()
	if snap.pipe == nil {
		err := fmt.Errorf("serve: snapshot %d was loaded from an artifact and carries no raw dataset; mutations need a trained snapshot (POST /v1/reload with a seed first)", snap.version)
		for _, job := range jobs {
			s.finishJob(job, mutationOutcome{err: err}, true)
		}
		return
	}

	// Durability first: append every job to the WAL — one record per job,
	// so crash replay applies exactly the batches the clients sent — and
	// group-commit the burst before anything is applied or acknowledged.
	// A job whose append or sync fails is failed without being applied:
	// nothing reaches the in-memory state that the log cannot replay.
	var walSeq uint64
	if s.walLog != nil {
		kept := jobs[:0]
		for _, job := range jobs {
			seq, err := s.walLog.Append(job.batch)
			if err != nil {
				s.finishJob(job, mutationOutcome{err: fmt.Errorf("serve: wal append: %w", err)}, true)
				continue
			}
			walSeq = seq
			kept = append(kept, job)
		}
		jobs = kept
		if len(jobs) == 0 {
			return
		}
		if err := s.walLog.Sync(); err != nil {
			for _, job := range jobs {
				s.finishJob(job, mutationOutcome{err: fmt.Errorf("serve: wal sync: %w", err)}, true)
			}
			return
		}
	}

	total := 0
	for _, job := range jobs {
		total += len(job.batch)
	}
	coalesced := make([]core.Mutation, 0, total)
	for _, job := range jobs {
		coalesced = append(coalesced, job.batch...)
	}
	if ds, res, stats, err := snap.pipe.ApplyMutations(snap.ds, snap.res, coalesced); err == nil {
		info := s.publishMutated(snap, ds, res, stats, walSeq)
		for _, job := range jobs {
			s.finishJob(job, mutationOutcome{epoch: info.Epoch, info: info, stats: stats}, false)
		}
		return
	} else if len(jobs) == 1 {
		s.finishJob(jobs[0], mutationOutcome{err: err}, true)
		return
	}

	// Per-job fallback: walk the burst in order, each surviving job
	// building on the previous one's output.
	ds, res := snap.ds, snap.res
	var agg core.ApplyStats
	type settled struct {
		job   mutationJob
		stats core.ApplyStats
	}
	var applied []settled
	for _, job := range jobs {
		nds, nres, stats, err := snap.pipe.ApplyMutations(ds, res, job.batch)
		if err != nil {
			s.finishJob(job, mutationOutcome{err: err}, true)
			continue
		}
		ds, res = nds, nres
		agg.Mutations += stats.Mutations
		agg.AddedEdges += stats.AddedEdges
		agg.RemovedEdges += stats.RemovedEdges
		agg.DirtyNodes += stats.DirtyNodes
		agg.DirtyCommunities += stats.DirtyCommunities
		agg.DirtyEdges += stats.DirtyEdges
		agg.DatasetEdits = stats.DatasetEdits // a size, not a sum: the last job's
		agg.Folded = agg.Folded || stats.Folded
		agg.Duration += stats.Duration
		applied = append(applied, settled{job: job, stats: stats})
	}
	if len(applied) == 0 {
		return
	}
	info := s.publishMutated(snap, ds, res, agg, walSeq)
	for _, a := range applied {
		s.finishJob(a.job, mutationOutcome{epoch: info.Epoch, info: info, stats: a.stats}, false)
	}
}

// publishMutated publishes the post-mutation snapshot and updates the
// observability counters. walSeq is the last WAL record the epoch covers
// (0 without a WAL). Callers hold reloadMu.
func (s *Server) publishMutated(prev *snapshot, ds *social.Dataset, res *core.Result, stats core.ApplyStats, walSeq uint64) SnapshotInfo {
	snap := &snapshot{
		version:   s.version.Add(1),
		seed:      prev.seed,
		epoch:     s.epochs.Add(1),
		ds:        ds,
		res:       res,
		pipe:      prev.pipe,
		builtAt:   time.Now(),
		buildTime: stats.Duration,
		walSeq:    walSeq,
	}
	s.cur.Store(snap)
	s.mutApplied.Add(int64(stats.Mutations))
	s.walSinceCkpt.Add(int64(stats.Mutations))
	s.kickCheckpoint()
	s.lastDirtyNodes.Store(int64(stats.DirtyNodes))
	s.lastDirtyEdges.Store(int64(stats.DirtyEdges))
	s.lastDatasetEdits.Store(int64(stats.DatasetEdits))
	if stats.Folded {
		s.mutFolds.Add(1)
	}
	s.lastApplyNs.Store(stats.Duration.Nanoseconds())
	s.log.Info("mutation epoch applied",
		"version", snap.version, "epoch", snap.epoch,
		"mutations", stats.Mutations,
		"dirty_nodes", stats.DirtyNodes, "dirty_edges", stats.DirtyEdges,
		"dataset_edits", stats.DatasetEdits, "folded", stats.Folded,
		"apply_seconds", stats.Duration.Seconds())
	return snap.info()
}
