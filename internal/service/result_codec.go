package service

// Wire codec for market.TaskResult — settlement reports that were delivered
// but not yet polled when a snapshot was taken travel inside it, so a restart
// loses nothing. Maps are encoded in sorted order; the encoding is
// deterministic.

import (
	"sort"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/wire"
)

func writeResult(w *wire.Writer, tr *market.TaskResult) {
	w.WriteString(tr.ID)
	w.WriteString(string(tr.Requester))
	w.WriteUint(uint64(len(tr.Outcomes)))
	for _, o := range tr.Outcomes {
		w.WriteString(o.Name)
		w.WriteString(string(o.Addr))
		writeAnswers(w, o.Answers)
		w.WriteInt(int64(o.Quality))
		w.WriteBool(o.Revealed)
		w.WriteBool(o.Paid)
		w.WriteBool(o.Rejected)
	}
	methods := make([]string, 0, len(tr.GasByMethod))
	for m := range tr.GasByMethod {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	w.WriteUint(uint64(len(methods)))
	for _, m := range methods {
		w.WriteString(m)
		w.WriteUint(tr.GasByMethod[m])
	}
	w.WriteUint(tr.GasTotal)
	w.WriteUint(uint64(tr.Rounds))
	w.WriteBool(tr.Finalized)
	w.WriteBool(tr.Cancelled)
	w.WriteUint(uint64(tr.RequesterBalance))
	addrs := make([]chain.Address, 0, len(tr.HarvestedAnswers))
	for a := range tr.HarvestedAnswers {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.WriteUint(uint64(len(addrs)))
	for _, a := range addrs {
		w.WriteString(string(a))
		writeAnswers(w, tr.HarvestedAnswers[a])
	}
}

func readResult(r *wire.Reader) (*market.TaskResult, error) {
	tr := &market.TaskResult{}
	var err error
	if tr.ID, err = r.ReadString(); err != nil {
		return nil, err
	}
	req, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	tr.Requester = chain.Address(req)
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	tr.Outcomes = make([]market.WorkerOutcome, n)
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		if o.Name, err = r.ReadString(); err != nil {
			return nil, err
		}
		addr, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		o.Addr = chain.Address(addr)
		if o.Answers, err = readAnswers(r); err != nil {
			return nil, err
		}
		q, err := r.ReadInt()
		if err != nil {
			return nil, err
		}
		o.Quality = int(q)
		if o.Revealed, err = r.ReadBool(); err != nil {
			return nil, err
		}
		if o.Paid, err = r.ReadBool(); err != nil {
			return nil, err
		}
		if o.Rejected, err = r.ReadBool(); err != nil {
			return nil, err
		}
	}
	if n, err = r.ReadCount(); err != nil {
		return nil, err
	}
	tr.GasByMethod = make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		m, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		if tr.GasByMethod[m], err = r.ReadUint(); err != nil {
			return nil, err
		}
	}
	if tr.GasTotal, err = r.ReadUint(); err != nil {
		return nil, err
	}
	rounds, err := r.ReadUint()
	if err != nil {
		return nil, err
	}
	tr.Rounds = int(rounds)
	if tr.Finalized, err = r.ReadBool(); err != nil {
		return nil, err
	}
	if tr.Cancelled, err = r.ReadBool(); err != nil {
		return nil, err
	}
	bal, err := r.ReadUint()
	if err != nil {
		return nil, err
	}
	tr.RequesterBalance = ledger.Amount(bal)
	if n, err = r.ReadCount(); err != nil {
		return nil, err
	}
	tr.HarvestedAnswers = make(map[chain.Address][]int64, n)
	for i := 0; i < n; i++ {
		a, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		if tr.HarvestedAnswers[chain.Address(a)], err = readAnswers(r); err != nil {
			return nil, err
		}
	}
	return tr, nil
}
