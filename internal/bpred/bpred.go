// Package bpred implements the paper's front-end predictors: a 2048-entry
// gshare direction predictor, a 256-entry 4-way branch target buffer,
// and a 256-entry per-thread return address stack.
//
// The simulator is trace-driven, so actual outcomes are known at fetch;
// the predictor decides whether fetch *believed* them. A branch counts
// as mispredicted when the predicted direction is wrong, or when it is
// taken but the BTB (or RAS, for returns) cannot supply the target. The
// pattern history table is shared by all threads (as in real SMT
// hardware) while global history and the RAS are per thread.
package bpred

import (
	"fmt"

	"dwarn/internal/config"
	"dwarn/internal/isa"
	"dwarn/internal/packed"
)

// Checkpoint snapshots the speculative per-thread predictor state before
// a prediction, so a squash can restore it. The value under the restored
// stack top is saved too: a pointer-only restore leaves entries
// overwritten by squashed speculation in place, and the resulting
// corruption feeds back into further mispredictions (the standard RAS
// top-of-stack repair).
type Checkpoint struct {
	History     uint32
	RASTop      int
	RASTopValue uint64
}

// Prediction is the front end's belief about one branch.
type Prediction struct {
	// Taken is the predicted direction.
	Taken bool
	// Mispredicted is true when the predicted direction (or a return's
	// RAS target) disagrees with the actual outcome; the pipeline
	// squashes when the branch resolves.
	Mispredicted bool
	// Resteer is true when the direction is right (or unconditional)
	// but the BTB could not supply the target: decode computes direct
	// targets, so the front end loses only a short re-steer bubble, not
	// a pipeline squash.
	Resteer bool
	// Before is the state to restore on a squash of this branch.
	Before Checkpoint
}

type btbEntry struct {
	tag     uint64
	target  uint64
	valid   bool
	lastUse int64
}

// Stats counts predictor behaviour.
type Stats struct {
	CondBranches  uint64
	CondMispred   uint64
	BTBMisses     uint64
	RASMispred    uint64
	TotalBranches uint64
	TotalMispred  uint64
}

// MispredictRate returns mispredictions per branch of any kind.
func (s *Stats) MispredictRate() float64 {
	if s.TotalBranches == 0 {
		return 0
	}
	return float64(s.TotalMispred) / float64(s.TotalBranches)
}

// Predictor is the complete front-end prediction machinery for one core.
type Predictor struct {
	cfg config.BranchPredictorConfig

	pht      []uint8 // 2-bit saturating counters
	phtMask  uint32
	histMask uint32

	btb      [][]btbEntry
	btbSets  int
	btbClock int64

	history []uint32 // per thread
	ras     [][]uint64
	rasTop  []int

	// Stats is per-thread predictor statistics.
	Stats []Stats
}

// New builds a predictor for nThreads hardware contexts.
func New(cfg config.BranchPredictorConfig, nThreads int) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.BTBEntries / cfg.BTBWays
	btb := make([][]btbEntry, sets)
	backing := make([]btbEntry, cfg.BTBEntries)
	for i := range btb {
		btb[i], backing = backing[:cfg.BTBWays:cfg.BTBWays], backing[cfg.BTBWays:]
	}
	p := &Predictor{
		cfg:      cfg,
		pht:      make([]uint8, cfg.GshareEntries),
		phtMask:  uint32(cfg.GshareEntries - 1),
		histMask: uint32(1<<cfg.GshareHistoryBits - 1),
		btb:      btb,
		btbSets:  sets,
		history:  make([]uint32, nThreads),
		ras:      make([][]uint64, nThreads),
		rasTop:   make([]int, nThreads),
		Stats:    make([]Stats, nThreads),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	for i := range p.ras {
		p.ras[i] = make([]uint64, cfg.RASEntries)
	}
	return p
}

func (p *Predictor) phtIndex(thread int, pc uint64) uint32 {
	return (uint32(pc>>2) ^ (p.history[thread] & p.histMask)) & p.phtMask
}

// Predict consumes one branch uop at fetch time: it produces the
// prediction, speculatively updates history, and maintains the RAS.
func (p *Predictor) Predict(thread int, u *isa.Uop) Prediction {
	st := &p.Stats[thread]
	st.TotalBranches++
	pred := Prediction{Before: Checkpoint{History: p.history[thread], RASTop: p.rasTop[thread]}}
	if top := p.rasTop[thread]; top > 0 {
		pred.Before.RASTopValue = p.ras[thread][(top-1)%len(p.ras[thread])]
	}

	switch u.Class {
	case isa.CondBranch:
		st.CondBranches++
		ctr := p.pht[p.phtIndex(thread, u.PC)]
		pred.Taken = ctr >= 2
		dirWrong := pred.Taken != u.Branch.Taken
		pred.Mispredicted = dirWrong
		if dirWrong {
			st.CondMispred++
		} else if pred.Taken {
			// Direction right; decode recomputes a direct target the
			// BTB could not supply, costing only a re-steer bubble.
			if _, ok := p.btbLookup(u.PC); !ok {
				st.BTBMisses++
				pred.Resteer = true
			}
		}
		// Speculative history update with the predicted direction.
		p.pushHistory(thread, pred.Taken)

	case isa.Jump:
		pred.Taken = true
		if _, ok := p.btbLookup(u.PC); !ok {
			st.BTBMisses++
			pred.Resteer = true
		}

	case isa.Call:
		pred.Taken = true
		if _, ok := p.btbLookup(u.PC); !ok {
			st.BTBMisses++
			pred.Resteer = true
		}
		p.rasPush(thread, u.PC+4)

	case isa.Ret:
		// Returns are true indirect jumps: a wrong or missing RAS entry
		// is a full misprediction, resolved at execute.
		pred.Taken = true
		top, ok := p.rasPop(thread)
		if !ok || top != u.Branch.Target {
			st.RASMispred++
			pred.Mispredicted = true
		}
	}
	if pred.Mispredicted {
		st.TotalMispred++
	}
	return pred
}

// Resolve trains the predictor when a correct-path branch executes: the
// PHT learns the actual direction and the BTB learns the actual target.
func (p *Predictor) Resolve(thread int, u *isa.Uop, pred Prediction) {
	if u.Class == isa.CondBranch {
		// Index with the history the branch saw at fetch.
		idx := (uint32(u.PC>>2) ^ (pred.Before.History & p.histMask)) & p.phtMask
		if u.Branch.Taken {
			if p.pht[idx] < 3 {
				p.pht[idx]++
			}
		} else if p.pht[idx] > 0 {
			p.pht[idx]--
		}
	}
	if u.Branch.Taken && u.Class != isa.Ret {
		p.btbInsert(u.PC, u.Branch.Target)
	}
}

// Restore rolls thread's speculative state (global history, RAS top)
// back to a checkpoint, without applying any outcome. Policy-initiated
// flushes use it: the squashed branches will be re-predicted on
// re-fetch.
func (p *Predictor) Restore(thread int, cp Checkpoint) {
	p.history[thread] = cp.History
	p.rasTop[thread] = cp.RASTop
	if cp.RASTop > 0 {
		p.ras[thread][(cp.RASTop-1)%len(p.ras[thread])] = cp.RASTopValue
	}
}

// Squash restores thread's speculative state to the checkpoint of a
// mispredicted branch and then applies the branch's actual outcome.
func (p *Predictor) Squash(thread int, u *isa.Uop, pred Prediction) {
	p.Restore(thread, pred.Before)
	switch u.Class {
	case isa.CondBranch:
		p.pushHistory(thread, u.Branch.Taken)
	case isa.Call:
		p.rasPush(thread, u.PC+4)
	case isa.Ret:
		p.rasPop(thread)
	}
}

func (p *Predictor) pushHistory(thread int, taken bool) {
	h := p.history[thread] << 1
	if taken {
		h |= 1
	}
	p.history[thread] = h & p.histMask
}

func (p *Predictor) rasPush(thread int, addr uint64) {
	top := p.rasTop[thread]
	p.ras[thread][top%len(p.ras[thread])] = addr
	p.rasTop[thread] = top + 1
}

func (p *Predictor) rasPop(thread int) (uint64, bool) {
	top := p.rasTop[thread]
	if top == 0 {
		return 0, false
	}
	p.rasTop[thread] = top - 1
	return p.ras[thread][(top-1)%len(p.ras[thread])], true
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	set := p.btb[(pc>>2)&uint64(p.btbSets-1)]
	tag := pc >> 2 / uint64(p.btbSets)
	p.btbClock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = p.btbClock
			return set[i].target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	set := p.btb[(pc>>2)&uint64(p.btbSets-1)]
	tag := pc >> 2 / uint64(p.btbSets)
	p.btbClock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].target = target
			set[i].lastUse = p.btbClock
			return
		}
		if !set[victim].valid {
			continue
		}
		if !set[i].valid || set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = btbEntry{tag: tag, target: target, valid: true, lastUse: p.btbClock}
}

// State is a complete snapshot of the predictor's learned and
// speculative state: the shared PHT, the BTB's valid entries and LRU
// clock, per-thread global history, and the per-thread return address
// stacks. Stats are measurement state and excluded. BTB holds the
// BTBSets×BTBWays table in package packed's form: each valid entry is
// its tag, target and lastUse, each as the difference from the previous
// valid entry's. Invalid entries are not stored; no lookup or
// replacement reads their fields.
type State struct {
	PHT      []uint8
	BTBSets  int
	BTBWays  int
	BTB      []byte
	BTBClock int64
	History  []uint32
	RAS      [][]uint64
	RASTop   []int
}

// btbFields is the varint count of one valid BTB entry in State.BTB.
const btbFields = 3

// ValidateBTB checks that st.BTB is a well-formed BTBSets×BTBWays
// snapshot.
func (st *State) ValidateBTB() error {
	if err := packed.Check(st.BTB, st.BTBSets, st.BTBWays, btbFields); err != nil {
		return fmt.Errorf("bpred: BTB snapshot: %w", err)
	}
	return nil
}

// State snapshots the predictor.
func (p *Predictor) State() State {
	st := State{
		PHT:      append([]uint8(nil), p.pht...),
		BTBSets:  p.btbSets,
		BTBWays:  p.cfg.BTBWays,
		BTBClock: p.btbClock,
		History:  append([]uint32(nil), p.history...),
		RAS:      make([][]uint64, len(p.ras)),
		RASTop:   append([]int(nil), p.rasTop...),
	}
	w := packed.NewWriter()
	var prev btbEntry
	for _, set := range p.btb {
		w.Set(len(set))
		for i, e := range set {
			if e.valid {
				w.Valid(i)
				w.Int(int64(e.tag - prev.tag))
				w.Int(int64(e.target - prev.target))
				w.Int(e.lastUse - prev.lastUse)
				prev = e
			}
		}
	}
	st.BTB = w.Bytes()
	for i := range p.ras {
		st.RAS[i] = append([]uint64(nil), p.ras[i]...)
	}
	return st
}

// SetState overwrites the predictor from a snapshot taken on an
// identically configured predictor with the same thread count. A shape
// mismatch or a malformed BTB body is an error; the predictor may be
// partially written in that case, so callers must treat failure as
// fatal for the restore (fall back to a freshly built machine).
func (p *Predictor) SetState(st State) error {
	if len(st.PHT) != len(p.pht) {
		return fmt.Errorf("bpred: snapshot PHT size %d does not match %d", len(st.PHT), len(p.pht))
	}
	if st.BTBSets != p.btbSets || st.BTBWays != p.cfg.BTBWays {
		return fmt.Errorf("bpred: snapshot BTB geometry %dx%d does not match %dx%d",
			st.BTBSets, st.BTBWays, p.btbSets, p.cfg.BTBWays)
	}
	if len(st.History) != len(p.history) || len(st.RAS) != len(p.ras) || len(st.RASTop) != len(p.rasTop) {
		return fmt.Errorf("bpred: snapshot thread count %d does not match %d", len(st.History), len(p.history))
	}
	for i := range st.RAS {
		if len(st.RAS[i]) != len(p.ras[i]) {
			return fmt.Errorf("bpred: snapshot RAS %d size %d does not match %d", i, len(st.RAS[i]), len(p.ras[i]))
		}
	}
	r := packed.NewReader(st.BTB)
	var prev btbEntry
	for _, set := range p.btb {
		mask := r.Set(len(set))
		for i := range set {
			if !packed.Valid(mask, i) {
				set[i] = btbEntry{}
				continue
			}
			prev.tag += uint64(r.Int())
			prev.target += uint64(r.Int())
			prev.lastUse += r.Int()
			prev.valid = true
			set[i] = prev
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("bpred: BTB snapshot: %w", err)
	}
	copy(p.pht, st.PHT)
	p.btbClock = st.BTBClock
	copy(p.history, st.History)
	for t := range st.RAS {
		copy(p.ras[t], st.RAS[t])
	}
	copy(p.rasTop, st.RASTop)
	return nil
}

// Reset clears all predictor state and statistics.
func (p *Predictor) Reset() {
	for i := range p.pht {
		p.pht[i] = 1
	}
	for i := range p.btb {
		for j := range p.btb[i] {
			p.btb[i][j] = btbEntry{}
		}
	}
	for i := range p.history {
		p.history[i] = 0
		p.rasTop[i] = 0
		p.Stats[i] = Stats{}
	}
}
