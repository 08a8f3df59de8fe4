package exec

import (
	"context"
	"fmt"

	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
)

// Solos resolves the solo cells behind a baselines cell's relative-IPC
// summary: each distinct benchmark of its workload runs solo under
// ICOUNT at the cell's own machine, seed and protocol
// (spec.SoloBaseline — the canonical identity every consumer of a
// given baseline shares). The map is keyed by benchmark; it is nil for
// cells that ask for no baselines and for trace cells. Iterate the
// cell's Options.Workload.Benchmarks for a deterministic order.
func Solos(res *spec.Resolved) (map[string]*spec.Resolved, error) {
	if !res.Spec.Baselines || res.Options.Trace != nil {
		return nil, nil
	}
	solos := make(map[string]*spec.Resolved)
	for _, b := range res.Options.Workload.Benchmarks {
		if _, dup := solos[b]; dup {
			continue
		}
		soloSpec := spec.SoloBaseline(res.Spec, b)
		sr, err := soloSpec.Resolve(nil)
		if err != nil {
			return nil, err
		}
		solos[b] = sr
	}
	return solos, nil
}

// SoloSummaries computes relative-IPC summaries for every finished
// cell whose spec asks for baselines: the Solos of all such cells,
// deduplicated by fingerprint, execute as one batch through the
// executor's line and store. The returned slice is aligned with cells;
// entries stay nil for cells without baselines, trace cells, and
// failed cells.
//
// This is the batch-after-the-grid shape `smtsim -spec` and the
// experiment runner share. The dwarnd service resolves the same Solos
// but interleaves them with the grid in one Execute call, because it
// reports per-cell progress while cells finish.
func SoloSummaries(ctx context.Context, ex *Executor, cells []*spec.Resolved, results []CellResult) ([]*stats.Summary, error) {
	summaries := make([]*stats.Summary, len(cells))
	cellSolos := make([]map[string]*spec.Resolved, len(cells))
	var batch []*spec.Resolved
	seen := map[string]bool{}
	for i, res := range cells {
		if results[i].Err != nil {
			continue
		}
		solos, err := Solos(res)
		if err != nil {
			return summaries, err
		}
		for _, b := range res.Options.Workload.Benchmarks {
			if sr := solos[b]; sr != nil && !seen[sr.Fingerprint] {
				seen[sr.Fingerprint] = true
				batch = append(batch, sr)
			}
		}
		cellSolos[i] = solos
	}
	if len(batch) == 0 {
		return summaries, nil
	}

	soloResults := ex.Execute(ctx, batch, nil)
	if err := FirstError(soloResults); err != nil {
		return summaries, err
	}
	// Index the in-memory batch results rather than re-reading the
	// store: a DirStore's Put is best-effort, so the store is allowed
	// to have dropped an entry the executor still holds.
	soloRes := make(map[string]*sim.Result, len(soloResults))
	for _, r := range soloResults {
		soloRes[r.Fingerprint] = r.Result
	}
	for i, solos := range cellSolos {
		if solos == nil {
			continue
		}
		res := results[i].Result
		solo := make([]float64, len(res.Threads))
		for j, t := range res.Threads {
			var sr *sim.Result
			if c := solos[t.Benchmark]; c != nil {
				sr = soloRes[c.Fingerprint]
			}
			if sr == nil {
				return summaries, fmt.Errorf("exec: missing solo baseline for %s", t.Benchmark)
			}
			solo[j] = sr.Threads[0].IPC
		}
		summary, err := stats.Summarize(res.IPCs(), solo)
		if err != nil {
			return summaries, err
		}
		summaries[i] = summary
	}
	return summaries, nil
}
