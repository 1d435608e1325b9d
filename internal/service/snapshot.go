package service

// Service snapshot/restore: the chain, ledger and off-chain store snapshots
// plus the service's own stream state — admission counter, lifetime counters,
// per-active-task progress records and the not-yet-polled settlement reports.
//
// Clients (requester and worker protocol state) are code plus a randomness
// stream, not data: a snapshot records only each active task's identity,
// admission round, resolved seed and the plaintext answers its workers
// already produced. Restore rebuilds every client from its seed and re-steps
// it round by round against a round-capped replay view of the restored chain
// (chain.ReplayBackend) — it re-draws the same randomness and rebuilds the
// same commitments and cursors, its submissions (already mined) are
// discarded, and the recorded answers keep replay from re-consuming any
// worker model's (possibly shared) rng. Task specs themselves carry code too
// (answer models, policies), so Restore takes a Rehydrate callback mapping a
// task ID back to its spec; tasks admitted AFTER a restore resolve answers
// from the caller's freshly constructed models, so exact stream-level
// determinism across a restart holds for rng-free model populations (the
// equivalence tests use those; see docs/SERVICE.md).

import (
	"errors"
	"fmt"

	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/swarm"
	"dragoon/internal/wire"
)

// snapshotVersion guards the service snapshot encoding: one chain, ledger
// and store triple, then the stream state. Restore reads no other version.
const snapshotVersion = 1

// Rehydrate maps an active task's ID back to its spec on restore. The spec
// must be semantically identical to the one originally submitted (same
// instance secrets, enrollment, policy); the service re-derives everything
// else.
type Rehydrate func(id string) (market.TaskSpec, error)

// Snapshot encodes the whole service world at a round boundary. The
// admission queue must be empty (step once, or stop submitting, first):
// queued specs carry code and cannot be serialized. On a background-mode
// service, Snapshot waits for the in-flight round.
func (s *Service) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if len(s.queue) > 0 {
		return nil, errors.New("service: snapshot with queued submissions (admit them first: they carry code, not data)")
	}
	w := wire.NewWriter()
	w.WriteUint(snapshotVersion)
	chainBytes, err := s.sh.Chain.Snapshot()
	if err != nil {
		return nil, err
	}
	w.WriteBytes(chainBytes)
	w.WriteBytes(s.sh.Ledger.Snapshot())
	w.WriteBytes(s.sh.Store.Snapshot())
	w.WriteUint(uint64(s.nextIndex))
	w.WriteUint(s.admitted)
	w.WriteUint(s.settled)
	w.WriteUint(s.expired)
	w.WriteUint(s.rejected)
	w.WriteUint(s.questions)

	w.WriteUint(uint64(len(s.active)))
	for _, st := range s.active {
		w.WriteString(string(st.rt.ID()))
		w.WriteUint(uint64(st.index))
		w.WriteInt(st.seed)
		w.WriteUint(uint64(st.admitted))
		answers := st.rt.RecordedAnswers()
		w.WriteUint(uint64(len(answers)))
		for _, a := range answers {
			writeAnswers(w, a)
		}
	}

	w.WriteUint(uint64(len(s.results)))
	for _, r := range s.results {
		writeStatus(w, r)
	}
	return w.Bytes(), nil
}

// Restore rebuilds a service from a Snapshot. cfg must match the snapshotted
// service's configuration (population, group, seed, knobs); rehydrate is
// called once per active task. The restored service resumes in the mode cfg
// selects (manual or background).
func Restore(cfg Config, data []byte, rehydrate Rehydrate) (*Service, error) {
	if cfg.Group == nil {
		return nil, errors.New("service: no group backend")
	}
	r := wire.NewReader(data)
	v, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("service: restore: %w", err)
	}
	if v != snapshotVersion {
		return nil, fmt.Errorf("%w %d (this build reads %d)", ErrSnapshotVersion, v, snapshotVersion)
	}
	chainBytes, err := r.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("service: restore: chain: %w", err)
	}
	ledgerBytes, err := r.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("service: restore: ledger: %w", err)
	}
	storeBytes, err := r.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("service: restore: store: %w", err)
	}
	led, err := ledger.Restore(ledgerBytes)
	if err != nil {
		return nil, err
	}
	store, err := swarm.Restore(storeBytes)
	if err != nil {
		return nil, err
	}
	ch, err := chain.RestoreChain(led, cfg.Scheduler, chainBytes)
	if err != nil {
		return nil, err
	}
	ch.SetParallelExecution(chain.ResolveExecWorkers(cfg.ParallelExec, cfg.Parallelism))
	s := newService(cfg, &chain.Shard{Ledger: led, Chain: ch, Store: store})

	next, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("service: restore: index: %w", err)
	}
	s.nextIndex = int(next)
	for _, c := range []*uint64{&s.admitted, &s.settled, &s.expired, &s.rejected, &s.questions} {
		if *c, err = r.ReadUint(); err != nil {
			return nil, fmt.Errorf("service: restore: counters: %w", err)
		}
	}

	n, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("service: restore: active tasks: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		if err := s.restoreTask(r, rehydrate); err != nil {
			return nil, err
		}
	}

	if n, err = r.ReadUint(); err != nil {
		return nil, fmt.Errorf("service: restore: results: %w", err)
	}
	s.results = make([]TaskStatus, n)
	for i := range s.results {
		if s.results[i], err = readStatus(r); err != nil {
			return nil, fmt.Errorf("service: restore: result %d: %w", i, err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("service: restore: %w", err)
	}
	s.start()
	return s, nil
}

// restoreTask rebuilds one active task's clients by replaying its lifetime
// against the restored chain.
func (s *Service) restoreTask(r *wire.Reader, rehydrate Rehydrate) error {
	id, err := r.ReadString()
	if err != nil {
		return fmt.Errorf("service: restore: task id: %w", err)
	}
	index, err := r.ReadUint()
	if err != nil {
		return fmt.Errorf("service: restore: task %q: %w", id, err)
	}
	seed, err := r.ReadInt()
	if err != nil {
		return fmt.Errorf("service: restore: task %q: %w", id, err)
	}
	admittedRound, err := r.ReadUint()
	if err != nil {
		return fmt.Errorf("service: restore: task %q: %w", id, err)
	}
	na, err := r.ReadUint()
	if err != nil {
		return fmt.Errorf("service: restore: task %q: %w", id, err)
	}
	answers := make([][]int64, na)
	for i := range answers {
		if answers[i], err = readAnswers(r); err != nil {
			return fmt.Errorf("service: restore: task %q answers: %w", id, err)
		}
	}

	if rehydrate == nil {
		return fmt.Errorf("service: restore: task %q active but no rehydrate callback", id)
	}
	spec, err := rehydrate(id)
	if err != nil {
		return fmt.Errorf("service: restore: task %q: %w", id, err)
	}
	if spec.Instance == nil || spec.Instance.Task.ID != id {
		return fmt.Errorf("service: restore: rehydrated spec does not describe task %q", id)
	}

	// Rebuild the clients over a replay view capped at the admission round,
	// re-install the contract program (snapshots carry state, not code), and
	// re-step every lived round. Submissions are discarded — they are
	// already mined into the restored chain.
	rb := chain.NewReplayBackend(s.sh.Chain, int(admittedRound))
	rt, err := market.NewRuntime(market.RuntimeConfig{
		Spec:        spec,
		Index:       int(index),
		Seed:        seed,
		Group:       s.cfg.Group,
		Backend:     rb,
		Store:       s.sh.Store,
		Population:  s.cfg.Population,
		PopAddrs:    s.popAddrs,
		SharedKey:   s.cfg.SharedKey,
		BatchVerify: s.cfg.BatchVerify,
		Answers:     answers,
	})
	if err != nil {
		return fmt.Errorf("service: restore: task %q: %w", id, err)
	}
	if err := s.sh.Chain.RegisterContract(rt.ID(), contract.New(s.cfg.Group)); err != nil {
		return fmt.Errorf("service: restore: task %q: %w", id, err)
	}
	if err := rt.Launch(); err != nil {
		return fmt.Errorf("service: restore: task %q: %w", id, err)
	}
	for round := int(admittedRound); round < s.sh.Chain.Round(); round++ {
		rb.SetRound(round)
		if err := rt.StepRequester(); err != nil {
			return fmt.Errorf("service: replaying task %q round %d: %w", id, round, err)
		}
		for i := 0; i < rt.Workers(); i++ {
			if err := rt.Prepare(i); err != nil {
				return fmt.Errorf("service: replaying task %q round %d worker %d: %w", id, round, i, err)
			}
			if _, err := rt.WorkerTxs(i); err != nil {
				return fmt.Errorf("service: replaying task %q round %d worker %d: %w", id, round, i, err)
			}
		}
	}
	rb.GoLive()

	if s.auditor != nil {
		s.auditor.Register(rt.ID(), rt.RequesterKey().H)
	}
	st := &taskState{
		rt:        rt,
		index:     int(index),
		seed:      seed,
		admitted:  int(admittedRound),
		questions: swarm.Address(spec.Instance.Task.MarshalQuestions()),
	}
	s.content[st.questions]++
	s.active = append(s.active, st)
	return nil
}

// writeAnswers / readAnswers encode one worker's plaintext answer vector,
// distinguishing "not yet produced" (nil) from produced-but-empty.
func writeAnswers(w *wire.Writer, a []int64) {
	if a == nil {
		w.WriteBool(false)
		return
	}
	w.WriteBool(true)
	w.WriteUint(uint64(len(a)))
	for _, v := range a {
		w.WriteInt(v)
	}
}

func readAnswers(r *wire.Reader) ([]int64, error) {
	present, err := r.ReadBool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	n, err := r.ReadUint()
	if err != nil {
		return nil, err
	}
	a := make([]int64, n)
	for i := range a {
		if a[i], err = r.ReadInt(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// writeStatus / readStatus encode one not-yet-polled settlement report.
func writeStatus(w *wire.Writer, st TaskStatus) {
	w.WriteString(st.ID)
	w.WriteUint(uint64(st.AdmittedRound))
	w.WriteUint(uint64(st.SettledRound))
	w.WriteBool(st.Expired)
	if st.Err != nil {
		w.WriteString(st.Err.Error())
	} else {
		w.WriteString("")
	}
	if st.Result == nil {
		w.WriteBool(false)
		return
	}
	w.WriteBool(true)
	writeResult(w, st.Result)
}

func readStatus(r *wire.Reader) (TaskStatus, error) {
	var st TaskStatus
	var err error
	if st.ID, err = r.ReadString(); err != nil {
		return st, err
	}
	admitted, err := r.ReadUint()
	if err != nil {
		return st, err
	}
	st.AdmittedRound = int(admitted)
	settled, err := r.ReadUint()
	if err != nil {
		return st, err
	}
	st.SettledRound = int(settled)
	if st.Expired, err = r.ReadBool(); err != nil {
		return st, err
	}
	errStr, err := r.ReadString()
	if err != nil {
		return st, err
	}
	if errStr != "" {
		st.Err = errors.New(errStr)
	}
	present, err := r.ReadBool()
	if err != nil {
		return st, err
	}
	if present {
		if st.Result, err = readResult(r); err != nil {
			return st, err
		}
	}
	return st, nil
}
