package chain_test

// Conflict-matrix and differential-oracle tests for the optimistic parallel
// round executor: every case runs the same schedule on a sequential chain
// and a parallel chain and requires byte-identical receipts, events, gas
// accounting and ledger state. The matrix cases additionally pin down the
// executor's conflict detection through ExecStats — conflicting schedules
// must actually re-execute, disjoint ones must not.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
)

// scriptContract interprets a tiny op language from the transaction data so
// tests can compose arbitrary read/write shapes. Ops are ';'-separated:
//
//	set <key> <val>       StoreSet(key, val)
//	get <key>             StoreGet(key)
//	getset <src> <dst>    read src, write what was found (or "none") to dst
//	freeze <acct> <n>     Freeze(acct, n); revert on nofund
//	pay <acct> <n>        Pay(acct, n); revert on empty escrow
//	emit <name> <data>    Emit(name, 1, data)
//	failif <key>          revert iff key exists
//	fail                  revert
type scriptContract struct{}

func (scriptContract) Execute(env *chain.Env, from chain.Address, method string, data []byte) error {
	for _, op := range strings.Split(string(data), ";") {
		f := strings.Fields(op)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "set":
			env.StoreSet(f[1], []byte(f[2]))
		case "get":
			env.StoreGet(f[1])
		case "getset":
			v, ok := env.StoreGet(f[1])
			if !ok {
				v = []byte("none")
			}
			env.StoreSet(f[2], v)
		case "freeze":
			n, _ := strconv.Atoi(f[2])
			if err := env.Freeze(ledger.AccountID(f[1]), ledger.Amount(n)); err != nil {
				return err
			}
		case "pay":
			n, _ := strconv.Atoi(f[2])
			if err := env.Pay(ledger.AccountID(f[1]), ledger.Amount(n)); err != nil {
				return err
			}
		case "emit":
			env.Emit(f[1], 1, []byte(f[2]))
		case "failif":
			if _, ok := env.StoreGet(f[1]); ok {
				return fmt.Errorf("script: %s exists", f[1])
			}
		case "fail":
			return fmt.Errorf("script: forced revert")
		default:
			return fmt.Errorf("script: unknown op %q", f[0])
		}
	}
	return nil
}

// scriptTx is one scheduled transaction of a test round.
type scriptTx struct {
	from     chain.Address
	contract ledger.ContractID
	script   string
}

// scriptRun executes the given rounds on a fresh chain with the given
// executor worker count and returns the chain (for stats/state assertions)
// and a fingerprint of everything observable.
func scriptRun(t *testing.T, workers int, contracts []ledger.ContractID,
	balances map[ledger.AccountID]ledger.Amount, rounds [][]scriptTx) (*chain.Chain, string) {
	t.Helper()
	led := ledger.New()
	for acct, bal := range balances {
		led.Mint(acct, bal)
	}
	c := chain.New(led, nil)
	c.SetParallelExecution(workers)
	for _, id := range contracts {
		if _, err := c.Deploy(id, scriptContract{}, 100, "deployer"); err != nil {
			t.Fatalf("deploy %s: %v", id, err)
		}
	}
	for ri, round := range rounds {
		for _, s := range round {
			if err := c.Submit(&chain.Tx{
				From: s.from, Contract: s.contract, Method: "run", Data: []byte(s.script),
			}); err != nil {
				t.Fatalf("round %d submit: %v", ri, err)
			}
		}
		if _, err := c.MineRound(); err != nil {
			t.Fatalf("round %d: %v", ri, err)
		}
	}
	var b strings.Builder
	var gasTotal uint64
	for _, rcpt := range c.Receipts() {
		gasTotal += rcpt.GasUsed
		fmt.Fprintf(&b, "rcpt r=%d from=%s gas=%d err=%v data=%q\n",
			rcpt.Round, rcpt.Tx.From, rcpt.GasUsed, rcpt.Err, rcpt.Tx.Data)
		for _, ev := range rcpt.Events {
			fmt.Fprintf(&b, "  ev %s %q r=%d\n", ev.Name, ev.Data, ev.Round)
		}
	}
	for _, ev := range c.Events() {
		fmt.Fprintf(&b, "ev %s/%s %q r=%d\n", ev.Contract, ev.Name, ev.Data, ev.Round)
	}
	for _, ev := range led.Events() {
		fmt.Fprintf(&b, "ledger %v %s %s %d\n", ev.Kind, ev.Contract, ev.Party, ev.Amount)
	}
	for _, acct := range led.Accounts() {
		fmt.Fprintf(&b, "bal %s=%d\n", acct, led.Balance(acct))
	}
	for _, id := range contracts {
		fmt.Fprintf(&b, "escrow %s=%d\n", id, led.Escrow(id))
	}
	fmt.Fprintf(&b, "gastotal=%d version=%d\n", gasTotal, c.StateVersion())
	return c, b.String()
}

// diffRun runs the schedule sequentially and with the parallel executor and
// fails unless both fingerprints match; it returns the parallel chain's
// (speculated, reexecuted) stats.
func diffRun(t *testing.T, contracts []ledger.ContractID,
	balances map[ledger.AccountID]ledger.Amount, rounds [][]scriptTx) (uint64, uint64) {
	t.Helper()
	_, seq := scriptRun(t, 1, contracts, balances, rounds)
	pc, par := scriptRun(t, 4, contracts, balances, rounds)
	if seq != par {
		t.Errorf("parallel execution diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
	spec, reexec := pc.ExecStats()
	if spec == 0 {
		t.Error("parallel chain never speculated — the optimistic executor did not engage")
	}
	return spec, reexec
}

// oneContract is the single-contract deployment most matrix cases use.
var oneContract = []ledger.ContractID{"A"}

func TestExecutorSameKeyReadWriteConflicts(t *testing.T) {
	_, reexec := diffRun(t, oneContract, nil, [][]scriptTx{{
		{from: "a", contract: "A", script: "set k v1"},
		{from: "b", contract: "A", script: "getset k out"},
	}})
	if reexec == 0 {
		t.Error("same-key read-after-write did not trigger a re-execution")
	}
}

func TestExecutorSameKeyWriteWriteConflicts(t *testing.T) {
	// The second writer's SSTORE billing depends on whether the key exists,
	// so its existence check is a read of the first writer's key: the gas
	// of tx2 differs between speculation (SStoreSet) and schedule order
	// (SStoreReset), and only a re-execution makes the receipts identical.
	_, reexec := diffRun(t, oneContract, nil, [][]scriptTx{{
		{from: "a", contract: "A", script: "set k v1"},
		{from: "b", contract: "A", script: "set k v2"},
	}})
	if reexec == 0 {
		t.Error("same-key write-write did not trigger a re-execution")
	}
}

func TestExecutorFreezeRaceSameAccount(t *testing.T) {
	// One worker enrolled in two tasks: both contracts freeze from the same
	// account, which can only cover one of the two freezes. Schedule order
	// decides which task gets the funds; the parallel engine must agree.
	balances := map[ledger.AccountID]ledger.Amount{"w": 100}
	_, reexec := diffRun(t, []ledger.ContractID{"A", "B"}, balances, [][]scriptTx{{
		{from: "a", contract: "A", script: "freeze w 60"},
		{from: "b", contract: "B", script: "freeze w 60"},
	}})
	if reexec == 0 {
		t.Error("same-account freeze race did not trigger a re-execution")
	}
}

func TestExecutorDistinctKeysOneContractClean(t *testing.T) {
	_, reexec := diffRun(t, oneContract, nil, [][]scriptTx{{
		{from: "a", contract: "A", script: "set k1 v; emit wrote k1"},
		{from: "b", contract: "A", script: "set k2 v; emit wrote k2"},
		{from: "c", contract: "A", script: "set k3 v; get k3"},
	}})
	if reexec != 0 {
		t.Errorf("write-write to distinct keys of one contract re-executed %d txs; want 0", reexec)
	}
}

func TestExecutorCrossContractDisjointClean(t *testing.T) {
	balances := map[ledger.AccountID]ledger.Amount{"wa": 100, "wb": 100}
	_, reexec := diffRun(t, []ledger.ContractID{"A", "B"}, balances, [][]scriptTx{{
		{from: "a", contract: "A", script: "set k v; freeze wa 10"},
		{from: "b", contract: "B", script: "set k v; freeze wb 10"},
	}})
	if reexec != 0 {
		t.Errorf("cross-contract disjoint txs re-executed %d; want 0", reexec)
	}
}

func TestExecutorRevertDependsOnPriorWrite(t *testing.T) {
	// Whether tx2 reverts depends on a key tx1 writes: sequentially it must
	// revert; a stale speculation would have it succeed. The read set of
	// the reverting path must force the re-execution.
	_, reexec := diffRun(t, oneContract, nil, [][]scriptTx{{
		{from: "a", contract: "A", script: "set gate open"},
		{from: "b", contract: "A", script: "failif gate; set other v"},
	}})
	if reexec == 0 {
		t.Error("revert-deciding read was not validated")
	}
}

func TestExecutorPayAndFreezeSameContractConflict(t *testing.T) {
	// Escrow is one key: any two ledger movements on one contract conflict,
	// and payments ordered after freezes may spend what the freeze brought.
	balances := map[ledger.AccountID]ledger.Amount{"rich": 1000}
	spec, _ := diffRun(t, oneContract, balances, [][]scriptTx{
		{{from: "r", contract: "A", script: "freeze rich 500"}},
		{
			{from: "r", contract: "A", script: "pay w1 200"},
			{from: "r", contract: "A", script: "pay w2 200"},
			{from: "r", contract: "A", script: "pay w3 200"}, // escrow empty: must revert
		},
	})
	if spec == 0 {
		t.Error("no speculation recorded")
	}
}

// TestExecutorRandomizedOracle is the randomized differential oracle: many
// rounds of randomly composed transactions — overlapping keys, freezes,
// pays, reverts, unknown contracts — executed sequentially and in parallel
// must stay byte-identical. Run under -race (make race) this also shakes
// out speculation-phase data races.
func TestExecutorRandomizedOracle(t *testing.T) {
	contracts := []ledger.ContractID{"A", "B", "C"}
	accounts := []string{"p0", "p1", "p2", "p3"}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			balances := map[ledger.AccountID]ledger.Amount{}
			for _, a := range accounts {
				balances[ledger.AccountID(a)] = ledger.Amount(50 + rng.Intn(100))
			}
			pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
			rounds := make([][]scriptTx, 8)
			for ri := range rounds {
				n := 4 + rng.Intn(10)
				for i := 0; i < n; i++ {
					var ops []string
					for j := 0; j < 1+rng.Intn(3); j++ {
						switch rng.Intn(8) {
						case 0, 1:
							ops = append(ops, fmt.Sprintf("set %s v%d", pick(keys), rng.Intn(4)))
						case 2, 3:
							ops = append(ops, "get "+pick(keys))
						case 4:
							ops = append(ops, fmt.Sprintf("getset %s %s", pick(keys), pick(keys)))
						case 5:
							ops = append(ops, fmt.Sprintf("freeze %s %d", pick(accounts), 1+rng.Intn(40)))
						case 6:
							ops = append(ops, fmt.Sprintf("pay %s %d", pick(accounts), 1+rng.Intn(40)))
						case 7:
							ops = append(ops, "failif "+pick(keys))
						}
					}
					ctr := contracts[rng.Intn(len(contracts))]
					if rng.Intn(20) == 0 {
						ctr = "ghost" // undeployed
					}
					rounds[ri] = append(rounds[ri], scriptTx{
						from:     chain.Address(fmt.Sprintf("acct-%d", rng.Intn(5))),
						contract: ctr,
						script:   strings.Join(ops, ";"),
					})
				}
			}
			diffRun(t, contracts, balances, rounds)
		})
	}
}

// TestExecutorUnderAdversarialScheduler checks the executor composes with a
// reordering network adversary: the scheduler fixes the (reversed) order,
// and parallel execution of that order must match sequential execution.
func TestExecutorUnderAdversarialScheduler(t *testing.T) {
	runWith := func(workers int) (*chain.Chain, string) {
		led := ledger.New()
		led.Mint("w", 100)
		c := chain.New(led, chain.ReorderScheduler{})
		c.SetParallelExecution(workers)
		if _, err := c.Deploy("A", scriptContract{}, 100, "deployer"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := c.Submit(&chain.Tx{
				From: chain.Address(fmt.Sprintf("a%d", i)), Contract: "A", Method: "run",
				Data: []byte(fmt.Sprintf("set k v%d; getset k out%d", i, i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.MineRound(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, rcpt := range c.Receipts() {
			fmt.Fprintf(&b, "%s %d %v|", rcpt.Tx.From, rcpt.GasUsed, rcpt.Err)
		}
		return c, b.String()
	}
	_, seq := runWith(1)
	_, par := runWith(4)
	if seq != par {
		t.Errorf("reordered schedule diverged:\nseq: %s\npar: %s", seq, par)
	}
}

func TestSubmitRejectsReusedPointer(t *testing.T) {
	c := chain.New(ledger.New(), nil)
	tx := &chain.Tx{From: "a", Contract: "x", Method: "m"}
	if err := c.Submit(tx); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := c.Submit(tx); err == nil {
		t.Fatal("resubmitting the same *Tx before mining was accepted")
	}
	if _, err := c.MineRound(); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(tx); err == nil {
		t.Fatal("resubmitting the same *Tx after mining was accepted")
	}
	// The submitted marker travels with the value (a struct copy of a
	// submitted Tx is still "that transaction"); only a freshly built Tx is
	// acceptable. This keeps reuse tracking O(1) per Tx instead of an
	// ever-growing pointer set on a long-lived chain.
	cp := *tx
	if err := c.Submit(&cp); err == nil {
		t.Fatal("a struct copy of a submitted Tx was accepted")
	}
	if err := c.Submit(&chain.Tx{From: "a", Contract: "x", Method: "m"}); err != nil {
		t.Fatalf("a freshly built Tx must be accepted: %v", err)
	}
}
