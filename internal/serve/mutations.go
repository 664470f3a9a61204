package serve

import (
	"errors"
	"fmt"

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

// applyJobs applies a coalesced burst of jobs by core's burst rule
// (Pipeline.ApplyBurst): the whole burst as one epoch, or — when that is
// rejected — job by job, skipping a rejected one so one poisoned batch
// (say, an add of an edge that already exists) cannot sink its
// neighbours. Either way at most one new snapshot is published.
func (s *Server) applyJobs(jobs []mutationJob) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	snap := s.current()
	if snap.pipe == nil {
		err := snap.immutable()
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

	batches := make([][]core.Mutation, len(jobs))
	for i, job := range jobs {
		batches[i] = job.batch
	}
	ds, res, burst := snap.pipe.ApplyBurst(snap.ds, snap.res, batches)
	var info SnapshotInfo
	if burst.Applied > 0 {
		info = s.publishMutated(snap, ds, res, burst.Total, walSeq)
	}
	for i, job := range jobs {
		if err := burst.Errs[i]; err != nil {
			s.finishJob(job, mutationOutcome{err: err}, true)
		} else {
			s.finishJob(job, mutationOutcome{epoch: info.Epoch, info: info, stats: burst.Stats[i]}, false)
		}
	}
}

// publishMutated publishes the post-mutation snapshot and updates the
// observability counters. walSeq is the last WAL record the epoch covers
// (0 without a WAL). Callers hold reloadMu.
func (s *Server) publishMutated(prev *snapshot, ds *social.Dataset, res *core.Result, stats core.ApplyStats, walSeq uint64) SnapshotInfo {
	s.epochs.Add(1)
	snap := s.newSnapshot(prev, prev.seed, ds, res, prev.pipe, stats.Duration)
	snap.walSeq = walSeq
	snap.applied += stats.Duration
	s.publish(snap)
	s.mutApplied.Add(int64(stats.Mutations))
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
