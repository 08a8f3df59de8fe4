package service

import (
	"net/http"
	"time"

	"dwarn/internal/fabric"
)

// FabricOptions enables the distributed sweep fabric: the server embeds
// a fabric.Coordinator over its executor's wait line and serves the
// lease protocol under /v2/fabric, so `dwarnd -worker` processes take
// cells from the same line the local slots (Options.Workers) drain.
type FabricOptions struct {
	// LeaseTTL is how long a worker's lease on a cell survives without a
	// heartbeat before the cell is requeued (0 = fabric default).
	LeaseTTL time.Duration
	// WorkerTTL is how long a silent worker stays registered (0 =
	// fabric default).
	WorkerTTL time.Duration
}

// handleFabricDisabled answers GET /v2/fabric when no coordinator is
// configured, so clients can probe for the fabric uniformly.
func (s *Server) handleFabricDisabled(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fabric.Status{Enabled: false, Workers: []fabric.WorkerStatus{}})
}
