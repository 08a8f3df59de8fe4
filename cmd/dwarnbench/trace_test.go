package main

import (
	"math"
	"strings"
	"testing"
)

// A slice of `go tool pprof -traces` output: a header, then stacks
// leaf first, each opened by its sample value. The last stack is the
// harness's reference kernel, which no bucket counts.
const tracesSample = `File: dwarnbench
Type: cpu
Duration: 2.33s, Total samples = 100ms (4.29%)
-----------+-------------------------------------------------------
      40ms   dwarn/internal/pipeline.regBitset.get (inline)
             dwarn/internal/pipeline.(*CPU).regReady
             dwarn/internal/pipeline.(*CPU).issueOne
             dwarn/internal/pipeline.(*CPU).issue
             dwarn/internal/pipeline.(*CPU).Step
-----------+-------------------------------------------------------
      20ms   dwarn/internal/rng.(*Source).Uint64 (inline)
             dwarn/internal/workload.(*program).dryRun
             dwarn/internal/workload.buildCore
             dwarn/internal/workload.NewGenerator
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             encoding/json.(*encodeState).string
             encoding/json.Marshal
             dwarn/internal/service.writeJSON
-----------+-------------------------------------------------------
      10ms   syscall.Syscall
             internal/poll.(*FD).Fsync
             os.(*File).Sync
             dwarn/internal/journal.(*Journal).Append
-----------+-------------------------------------------------------
       10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             dwarn/internal/pipeline.(*CPU).Step
             dwarn/internal/pipeline.(*CPU).Run
             dwarn/internal/sim.runCycles
-----------+-------------------------------------------------------
      30ms   slices.pdqsortOrdered[go.shape.int]
             slices.Sort[go.shape.[]int,go.shape.int]
             main.(*hostRef).burst
-----------+-------------------------------------------------------
`

func TestSharesFromTraces(t *testing.T) {
	shares, err := sharesFromTraces(strings.NewReader(tracesSample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.pipeline.issue": 40,
		"cpu.workload.build": 20,
		"cpu.json":           10,
		"cpu.io":             10,
		"cpu.runtime.gc":     10,
		"cpu.pipeline.other": 10,
	}
	var total float64
	for _, name := range cpuShares {
		total += shares[name]
		if math.Abs(shares[name]-want[name]) > 1e-9 {
			t.Errorf("%s = %g%%, want %g%%", name, shares[name], want[name])
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %g%%", total)
	}
}

func TestClassifyStack(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"dwarn/internal/mem/cache.(*Cache).Access", "dwarn/internal/pipeline.(*CPU).loadAccess"}, "cpu.mem"},
		{[]string{"dwarn/internal/workload.(*Generator).Next", "dwarn/internal/pipeline.(*thread).peek"}, "cpu.workload.stream"},
		{[]string{"dwarn/internal/pipeline.(*instDeque).push", "dwarn/internal/pipeline.(*CPU).dispatchOne"}, "cpu.pipeline.dispatch"},
		{[]string{"runtime.memmove", "dwarn/internal/ckpt.Encode"}, "cpu.ckpt"},
		{[]string{"internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*response).Write"}, "cpu.http"},
		{[]string{"dwarn/internal/core.(*DWarn).Priority", "dwarn/internal/pipeline.(*CPU).fetch"}, "cpu.core.policy"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "cpu.other"},
	} {
		if got := classifyStack(c.stack); got != c.want {
			t.Errorf("classifyStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
