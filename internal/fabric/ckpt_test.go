package fabric

import (
	"bytes"
	"net/http"
	"testing"

	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/workload"
)

// buildImage warms one real run and returns its published checkpoint.
func buildImage(t *testing.T) (string, *ckpt.Image) {
	t.Helper()
	wl, err := workload.GetWorkload("2-ILP")
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemStore(0)
	opts := sim.Options{
		Policy: "icount", Workload: wl, Seed: 9,
		WarmupCycles: 500, MeasureCycles: 500,
		Checkpoints: store,
	}
	if _, err := sim.Run(opts); err != nil {
		t.Fatal(err)
	}
	key := sim.CheckpointKey(opts)
	img, ok := store.Get(key)
	if !ok {
		t.Fatal("run did not publish a checkpoint")
	}
	return key, img
}

// TestCkptTransferRoundTrip pushes a checkpoint through the remote
// store to the coordinator and pulls it back intact.
func TestCkptTransferRoundTrip(t *testing.T) {
	coordStore := ckpt.NewMemStore(0)
	_, ts := newTestFabric(t, Config{Checkpoints: coordStore})

	key, img := buildImage(t)
	remote := NewRemoteCkptStore(ts.URL, "", nil)

	if _, ok := remote.Get(key); ok {
		t.Fatal("coordinator served a checkpoint it does not hold")
	}
	remote.Put(key, img)
	if _, ok := coordStore.Get(key); !ok {
		t.Fatal("push did not land in the coordinator store")
	}
	got, ok := remote.Get(key)
	if !ok {
		t.Fatal("pull after push missed")
	}
	if !bytes.Equal(ckpt.Encode(got), ckpt.Encode(img)) {
		t.Error("checkpoint changed across the wire")
	}
}

// TestCkptTransferRejectsCorruption posts mangled checkpoint bytes and
// asserts the coordinator refuses them.
func TestCkptTransferRejectsCorruption(t *testing.T) {
	coordStore := ckpt.NewMemStore(0)
	_, ts := newTestFabric(t, Config{Checkpoints: coordStore})

	key, img := buildImage(t)
	data := ckpt.Encode(img)
	data[len(data)/2] ^= 0xFF // flip a payload bit; CRC must catch it

	resp, err := http.Post(ts.URL+"/v2/fabric/ckpt/"+key, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt push: got %d, want 400", resp.StatusCode)
	}
	if _, ok := coordStore.Get(key); ok {
		t.Fatal("corrupt checkpoint was stored")
	}
}

// TestFabricWorkerForksFromCoordinator runs a policy sweep over one
// workload group through a remote worker whose checkpoint chain ends at
// the coordinator: digests must match a serial run exactly (forking is
// invisible in results).
func TestFabricWorkerForksFromCoordinator(t *testing.T) {
	cells := resolveGrid(t, []string{"icount", "stall", "dwarn"}, []uint64{3})
	want := serialDigests(t, cells)

	coordStore := ckpt.NewMemStore(0)
	c, ts := newTestFabric(t, Config{Checkpoints: coordStore})
	startWorker(t, ts.URL, WorkerOptions{Executor: exec.New(exec.Options{
		Workers: 2, Registry: obs.NewRegistry(),
		Checkpoints: ckpt.Chain{ckpt.NewMemStore(0), NewRemoteCkptStore(ts.URL, "", nil)},
	})})

	got := executeFabric(t, c, cells)
	for fp, d := range want {
		if got[fp] != d {
			t.Errorf("cell %s: fabric digest %s != serial %s", fp[:12], got[fp], d)
		}
	}
	// The worker's chain pushes the group's checkpoint up to the
	// coordinator, where late-joining workers would fork from.
	var res *spec.Resolved = cells[0]
	if _, ok := coordStore.Get(res.CheckpointKey); !ok {
		t.Error("worker did not push the group checkpoint to the coordinator")
	}
}
