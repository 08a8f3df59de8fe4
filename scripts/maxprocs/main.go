// Command maxprocs prints runtime.GOMAXPROCS(0) — the parallelism
// bound scripts/bench_fabric.sh records next to its speedup numbers so
// a flat curve on a small machine is attributable.
package main

import (
	"fmt"
	"runtime"
)

func main() {
	fmt.Println(runtime.GOMAXPROCS(0))
}
