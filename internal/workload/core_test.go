package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden core hashes")

// coreGoldenSeeds are the seeds TestCoreGolden calibrates every
// built-in profile at.
var coreGoldenSeeds = []uint64{1, 42, 0x9e3779b97f4a7c15}

// coreHash is a SHA-256 over everything a calibrated core fixes: the
// program text (every slot's class, home region, loop flag, trip count,
// bias and target, then the block table and function entries), the
// region weights and adjustments, and the walker RNG's initial state.
func coreHash(c *Core) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	fmt.Fprintf(h, "%s|%d|%d|%d|%d\n", c.prof.Name, c.base, len(c.prog.insts), len(c.prog.blocks), len(c.prog.entries))
	for i := range c.prog.insts {
		st := &c.prog.insts[i]
		loop := uint64(0)
		if st.loop {
			loop = 1
		}
		put(uint64(st.class) | uint64(st.region)<<8 | loop<<16 | uint64(st.trips)<<24 | uint64(uint32(st.target))<<32)
		f(st.bias)
	}
	for _, b := range c.prog.blocks {
		put(uint64(b.first)<<32 | uint64(b.n))
	}
	for _, e := range c.prog.entries {
		put(uint64(uint32(e)))
	}
	farW, midW, sFarW, sMidW := regionWeights(c.prof)
	for _, v := range []float64{farW, midW, sFarW, sMidW} {
		f(v)
	}
	for _, a := range []RegionAdjust{c.loadAdj, c.storeAdj} {
		f(a.PFar)
		f(a.PMid)
		f(a.LeakFar)
		f(a.LeakMid)
	}
	put(c.walkRNG)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCoreGolden pins every built-in profile's calibrated core at three
// seeds, bit for bit. Program synthesis and calibration may be made
// faster, never different: a change that moves a hash changes every
// simulation result, and must bump the checkpoint image magic. Run with
// -update to rewrite testdata/core_golden.json after an intended change.
func TestCoreGolden(t *testing.T) {
	got := map[string]string{}
	for _, name := range Names() {
		prof, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range coreGoldenSeeds {
			got[fmt.Sprintf("%s/%d", name, seed)] = coreHash(buildCore(prof, seed, 1<<40))
		}
	}
	path := filepath.Join("testdata", "core_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cores hashed, golden file holds %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: core hash %s, golden %s", k, got[k], w)
		}
	}
}
