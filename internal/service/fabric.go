package service

import (
	"net/http"
	"time"

	"dwarn/internal/fabric"
)

// FabricOptions enables the distributed sweep fabric: the server embeds
// a fabric.Coordinator behind the executor's Dispatcher seam, serves
// the lease protocol under /v2/fabric, and runs LocalWorkers in-process
// lease loops — so a lone dwarnd behaves exactly as before, and
// `dwarnd -worker` processes join the same queue the moment they
// register.
type FabricOptions struct {
	// LocalWorkers is how many in-process worker slots drain the queue
	// (default: Options.Workers). Zero via LocalWorkersSet makes the
	// server a pure coordinator: every cell waits for a remote worker,
	// and trace-workload cells are rejected (their payloads live in this
	// process's trace store).
	LocalWorkers int
	// LocalWorkersSet distinguishes "LocalWorkers: 0" (pure coordinator)
	// from an unset field defaulting to Options.Workers.
	LocalWorkersSet bool
	// LeaseTTL is how long a worker's lease on a cell survives without a
	// heartbeat before the cell is requeued (0 = fabric default).
	LeaseTTL time.Duration
	// WorkerTTL is how long a silent worker stays registered (0 =
	// fabric default).
	WorkerTTL time.Duration
}

// startFabric builds the coordinator, wires it as the executor
// dispatcher, and starts the local workers. Called from New when
// Options.Fabric is set.
func (s *Server) startFabric(fo *FabricOptions) *fabric.Coordinator {
	c := fabric.NewCoordinator(fabric.Config{
		LeaseTTL:  fo.LeaseTTL,
		WorkerTTL: fo.WorkerTTL,
		Registry:  s.reg,
		Logger:    s.log,
		// Serve the server's checkpoint tier under /v2/fabric/ckpt so
		// remote workers fork groups warmed anywhere in the fleet.
		Checkpoints: s.opts.Checkpoints,
	})
	n := fo.LocalWorkers
	if n <= 0 && !fo.LocalWorkersSet {
		n = s.opts.Workers
	}
	c.StartLocalWorkers(n, s.runCell)
	return c
}

// handleFabricDisabled answers GET /v2/fabric when no coordinator is
// configured, so clients can probe for the fabric uniformly.
func (s *Server) handleFabricDisabled(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fabric.Status{Enabled: false, Workers: []fabric.WorkerStatus{}})
}
