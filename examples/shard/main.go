// Shard: the distributed sweep loop in one program. A campaign grid is
// planned once, cut into three shards, and each shard runs as if it were
// its own process — its partial summary crossing a JSON "wire" (here a
// byte buffer; in a real deployment a file, object store or socket)
// before the merge folds the shards back together. The merged summary is
// byte-identical to running the whole grid in one process: same String(),
// same CSV, same JSON, cell for cell.
package main

import (
	"bytes"
	"fmt"

	"repro/internal/sweep"
)

func main() {
	grid := sweep.Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     sweep.SeedRange(42, 3),
		Days:      7,
	}

	plan, err := sweep.Plan(grid)
	if err != nil {
		panic(err)
	}
	const shards = 3
	fmt.Printf("plan: %d cells across %d shards\n", len(plan), shards)

	// Fan out: each shard executes only its slice of the plan and encodes
	// a partial summary onto the wire. Nothing below this loop needs the
	// grid's results in memory — only the wire documents.
	wire := make([]bytes.Buffer, shards)
	for i := 0; i < shards; i++ {
		part, err := sweep.RunShardWith(grid, sweep.LocalRunner{}, i, shards)
		if err != nil {
			panic(err)
		}
		if err := part.WriteJSON(&wire[i]); err != nil {
			panic(err)
		}
		fmt.Printf("  shard %d/%d: %d cells, %d wire bytes\n",
			i, shards, len(part.Cells), wire[i].Len())
	}

	// Fan in: decode every partial and merge. The merge validates the
	// shards belong together (same plan fingerprint, no overlap, nothing
	// missing) before refolding the group stats.
	parts := make([]*sweep.Summary, shards)
	for i := range wire {
		if parts[i], err = sweep.ReadSummary(&wire[i]); err != nil {
			panic(err)
		}
	}
	merged, err := sweep.MergeSummaries(parts...)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nmerged %d shards -> %d of %d cells\n\n", shards, len(merged.Cells), merged.TotalCells)
	fmt.Print(merged)

	// Prove the distribution was free: a single-process run of the same
	// grid produces the same bytes.
	single, err := sweep.Run(grid, 0)
	if err != nil {
		panic(err)
	}
	var mergedJSON, singleJSON bytes.Buffer
	if err := merged.WriteJSON(&mergedJSON); err != nil {
		panic(err)
	}
	if err := single.WriteJSON(&singleJSON); err != nil {
		panic(err)
	}
	if merged.String() != single.String() || !bytes.Equal(mergedJSON.Bytes(), singleJSON.Bytes()) {
		panic("merged output differs from the single-process run")
	}
	fmt.Println("\nmerged output is byte-identical to the single-process run")
}
