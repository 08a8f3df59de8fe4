package bpred

import (
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/isa"
)

func newPred(t *testing.T) *Predictor {
	t.Helper()
	return New(config.Baseline().Bpred, 2)
}

func condUop(pc uint64, taken bool, target uint64) *isa.Uop {
	return &isa.Uop{PC: pc, Class: isa.CondBranch, Branch: isa.BranchInfo{Taken: taken, Target: target}}
}

// step runs one branch through the full pipeline protocol: predict,
// resolve (train), and recover speculative state on a misprediction.
func step(p *Predictor, thread int, u *isa.Uop) Prediction {
	pred := p.Predict(thread, u)
	p.Resolve(thread, u, pred)
	if pred.Mispredicted {
		p.Squash(thread, u, pred)
	}
	return pred
}

func TestGshareLearnsBias(t *testing.T) {
	p := newPred(t)
	u := condUop(0x1000, true, 0x2000)
	miss := 0
	for i := 0; i < 50; i++ {
		pred := step(p, 0, u)
		if i >= 10 && pred.Mispredicted {
			miss++
		}
	}
	if miss > 0 {
		t.Errorf("always-taken branch mispredicted %d times after warmup", miss)
	}
}

func TestGshareLearnsNotTaken(t *testing.T) {
	p := newPred(t)
	u := condUop(0x1000, false, 0x2000)
	for i := 0; i < 10; i++ {
		step(p, 0, u)
	}
	if pred := p.Predict(0, u); pred.Taken {
		t.Error("never-taken branch predicted taken after training")
	}
}

func TestBTBResteerOnColdTakenBranch(t *testing.T) {
	p := newPred(t)
	u := condUop(0x3000, true, 0x4000)
	// Train direction without BTB (Resolve inserts BTB, so check the
	// very first confident taken prediction).
	step(p, 0, u)
	step(p, 0, u)
	if pred := p.Predict(0, u); pred.Taken && !pred.Mispredicted && pred.Resteer {
		t.Error("BTB resteer after Resolve inserted the target")
	}
}

func TestJumpResteerOnceThenHit(t *testing.T) {
	p := newPred(t)
	u := &isa.Uop{PC: 0x5000, Class: isa.Jump, Branch: isa.BranchInfo{Taken: true, Target: 0x6000}}
	pred := p.Predict(0, u)
	if !pred.Resteer || pred.Mispredicted {
		t.Fatalf("cold jump: %+v, want resteer without mispredict", pred)
	}
	p.Resolve(0, u, pred)
	if pred = p.Predict(0, u); pred.Resteer {
		t.Error("jump resteered after BTB insert")
	}
}

func TestRASPredictsBalancedCallReturn(t *testing.T) {
	p := newPred(t)
	call := &isa.Uop{PC: 0x100, Class: isa.Call, Branch: isa.BranchInfo{Taken: true, Target: 0x800}}
	ret := &isa.Uop{PC: 0x900, Class: isa.Ret, Branch: isa.BranchInfo{Taken: true, Target: 0x104}}
	p.Predict(0, call)
	pred := p.Predict(0, ret)
	if pred.Mispredicted {
		t.Error("balanced return mispredicted")
	}
}

func TestRASEmptyMispredicts(t *testing.T) {
	p := newPred(t)
	ret := &isa.Uop{PC: 0x900, Class: isa.Ret, Branch: isa.BranchInfo{Taken: true, Target: 0x104}}
	if pred := p.Predict(0, ret); !pred.Mispredicted {
		t.Error("empty-RAS return predicted")
	}
}

func TestRASWrongTargetMispredicts(t *testing.T) {
	p := newPred(t)
	call := &isa.Uop{PC: 0x100, Class: isa.Call, Branch: isa.BranchInfo{Taken: true, Target: 0x800}}
	ret := &isa.Uop{PC: 0x900, Class: isa.Ret, Branch: isa.BranchInfo{Taken: true, Target: 0xDEAD}}
	p.Predict(0, call)
	if pred := p.Predict(0, ret); !pred.Mispredicted {
		t.Error("wrong-target return predicted")
	}
}

func TestCheckpointRestore(t *testing.T) {
	p := newPred(t)
	call := &isa.Uop{PC: 0x100, Class: isa.Call, Branch: isa.BranchInfo{Taken: true, Target: 0x800}}
	ret := &isa.Uop{PC: 0x900, Class: isa.Ret, Branch: isa.BranchInfo{Taken: true, Target: 0x104}}
	p.Predict(0, call) // pushes 0x104
	// A mispredicted branch checkpoint taken here, then speculative
	// pops/pushes, then restore.
	cpBranch := condUop(0x200, true, 0x300)
	pred := p.Predict(0, cpBranch)
	p.Predict(0, ret)                                                                                      // speculative pop
	p.Predict(0, &isa.Uop{PC: 0x400, Class: isa.Call, Branch: isa.BranchInfo{Taken: true, Target: 0x800}}) // overwrites slot
	p.Restore(0, pred.Before)
	if got := p.Predict(0, ret); got.Mispredicted {
		t.Error("RAS corrupted across checkpoint restore")
	}
}

func TestSquashAppliesActualOutcome(t *testing.T) {
	p := newPred(t)
	u := condUop(0x700, true, 0x900)
	pred := p.Predict(0, u)
	histAfterPredict := p.history[0]
	p.Squash(0, u, pred)
	want := (pred.Before.History<<1 | 1) & p.histMask
	if p.history[0] != want {
		t.Errorf("history after squash %b, want %b (was %b)", p.history[0], want, histAfterPredict)
	}
}

func TestPerThreadIsolationOfRAS(t *testing.T) {
	p := newPred(t)
	call := &isa.Uop{PC: 0x100, Class: isa.Call, Branch: isa.BranchInfo{Taken: true, Target: 0x800}}
	ret := &isa.Uop{PC: 0x900, Class: isa.Ret, Branch: isa.BranchInfo{Taken: true, Target: 0x104}}
	p.Predict(0, call)
	// Thread 1's return must not see thread 0's frame.
	if pred := p.Predict(1, ret); !pred.Mispredicted {
		t.Error("RAS leaked across threads")
	}
}

func TestStatsCounting(t *testing.T) {
	p := newPred(t)
	u := condUop(0x1000, true, 0x2000)
	p.Predict(0, u)
	if p.Stats[0].TotalBranches != 1 || p.Stats[0].CondBranches != 1 {
		t.Errorf("stats %+v", p.Stats[0])
	}
	if p.Stats[1].TotalBranches != 0 {
		t.Error("stats leaked across threads")
	}
}

func TestMispredictRate(t *testing.T) {
	s := Stats{TotalBranches: 10, TotalMispred: 3}
	if s.MispredictRate() != 0.3 {
		t.Errorf("rate %v", s.MispredictRate())
	}
	var empty Stats
	if empty.MispredictRate() != 0 {
		t.Error("empty rate not 0")
	}
}

func TestReset(t *testing.T) {
	p := newPred(t)
	u := condUop(0x1000, true, 0x2000)
	for i := 0; i < 8; i++ {
		step(p, 0, u)
	}
	p.Reset()
	if p.Stats[0].TotalBranches != 0 {
		t.Error("stats survived reset")
	}
	// Counters back to weakly-not-taken: a fresh prediction is not taken.
	if pred := p.Predict(0, u); pred.Taken {
		t.Error("PHT state survived reset")
	}
}

func TestLoopPatternLearnable(t *testing.T) {
	// A loop branch taken N times then not taken, repeating: gshare with
	// history should mispredict at most ~1 per iteration-group after
	// warmup.
	p := newPred(t)
	const trips = 4
	miss := 0
	total := 0
	for visit := 0; visit < 200; visit++ {
		for i := 0; i <= trips; i++ {
			u := condUop(0x1000, i < trips, 0x800)
			pred := step(p, 0, u)
			if visit >= 50 {
				total++
				if pred.Mispredicted {
					miss++
				}
			}
		}
	}
	if rate := float64(miss) / float64(total); rate > 0.05 {
		t.Errorf("short-loop mispredict rate %.3f, want < 0.05", rate)
	}
}
