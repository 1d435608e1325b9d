package market

// The marketplace round auditor: cross-task batch verification. Every
// rejection the contracts accepted in one mined round — across ALL tasks —
// is re-verified off-chain in a single folded VPKE check (package batch), so
// an auditor tracking a busy chain pays one multi-scalar multiplication per
// round instead of six scalar multiplications per revelation. This is the
// paper's audit property ("the golden standards become public auditable
// once the HIT is done") made cheap at marketplace scale: the audit is
// read-only, so receipts, events, gas and payments are byte-identical with
// auditing on or off, and a fold/contract disagreement — which soundness
// says cannot happen — fails the run loudly.

import (
	"fmt"
	"math/big"

	"dragoon/internal/batch"
	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/vpke"
)

// Auditor re-verifies accepted rejection proofs round by round. It operates
// on the receipts each mined round returns (never on the chain's retained
// history), so it keeps working on a long-lived chain whose old receipts
// have been trimmed; tasks register their requester key on admission and
// unregister on settlement, keeping the auditor's footprint proportional to
// the active task set.
type Auditor struct {
	g     group.Group
	keys  map[ledger.ContractID]group.Element
	count int
}

// NewAuditor returns an empty auditor over one crypto backend.
func NewAuditor(g group.Group) *Auditor {
	return &Auditor{g: g, keys: make(map[ledger.ContractID]group.Element)}
}

// Register adds a task's contract with its requester encryption key h;
// rejection proofs on unregistered contracts are ignored.
func (a *Auditor) Register(id ledger.ContractID, h group.Element) { a.keys[id] = h }

// Unregister drops a settled task's contract.
func (a *Auditor) Unregister(id ledger.ContractID) { delete(a.keys, id) }

// Count returns the number of VPKE statements folded so far.
func (a *Auditor) Count() int { return a.count }

// Audit folds every rejection proof accepted in one mined round's receipts
// into a single batched verification.
func (a *Auditor) Audit(round int, rcpts []*chain.Receipt) error {
	var sts []batch.VPKEStatement
	for _, rcpt := range rcpts {
		if rcpt.Reverted() {
			continue
		}
		h, ours := a.keys[rcpt.Tx.Contract]
		if !ours {
			continue
		}
		// Only transactions the contract answered with a rejection carry a
		// verified proof; invalid rejections pay the worker instead and
		// leave nothing to audit.
		rejected := false
		for _, ev := range rcpt.Events {
			if ev.Name == contract.EventRejected {
				rejected = true
				break
			}
		}
		if !rejected {
			continue
		}
		switch rcpt.Tx.Method {
		case contract.MethodOutrange:
			msg, err := contract.UnmarshalOutrange(rcpt.Tx.Data)
			if err != nil {
				return fmt.Errorf("market: audit: outrange tx on %q: %w", rcpt.Tx.Contract, err)
			}
			st, err := a.statement(h, msg.Ct, msg.Element, msg.Proof)
			if err != nil {
				return fmt.Errorf("market: audit: outrange proof on %q: %w", rcpt.Tx.Contract, err)
			}
			sts = append(sts, st)
		case contract.MethodEvaluate:
			msg, err := contract.UnmarshalEvaluate(rcpt.Tx.Data)
			if err != nil {
				return fmt.Errorf("market: audit: evaluate tx on %q: %w", rcpt.Tx.Contract, err)
			}
			for _, e := range msg.Wrong {
				elem := e.Element
				if e.InRange {
					elem = a.g.Marshal(a.g.ScalarBaseMul(big.NewInt(e.Value)))
				}
				st, err := a.statement(h, e.Ct, elem, e.Proof)
				if err != nil {
					return fmt.Errorf("market: audit: evaluate proof on %q: %w", rcpt.Tx.Contract, err)
				}
				sts = append(sts, st)
			}
		}
	}
	if len(sts) == 0 {
		return nil
	}
	if ok, bad := batch.VerifyVPKE(a.g, sts); !ok {
		return fmt.Errorf("market: audit: round %d: %d of %d accepted rejection proofs failed the batch fold (indices %v)",
			round, len(bad), len(sts), bad)
	}
	a.count += len(sts)
	return nil
}

// statement decodes one on-chain rejection proof into a fold statement.
func (a *Auditor) statement(h group.Element, ctRaw, elemRaw, proofRaw []byte) (batch.VPKEStatement, error) {
	ct, err := elgamal.UnmarshalCiphertext(a.g, ctRaw)
	if err != nil {
		return batch.VPKEStatement{}, err
	}
	gm, err := a.g.Unmarshal(elemRaw)
	if err != nil {
		return batch.VPKEStatement{}, err
	}
	pi, err := vpke.UnmarshalProof(a.g, proofRaw)
	if err != nil {
		return batch.VPKEStatement{}, err
	}
	return batch.VPKEStatement{H: h, Gm: gm, Ct: ct, Proof: pi}, nil
}
