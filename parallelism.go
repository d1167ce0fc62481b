package gpupower

import "gpupower/internal/parallel"

// Parallelism controls for the estimation engine. Fleet fitting (one model
// per member), sharded cluster simulation and the experiment drivers fan
// their independent sub-problems out across a bounded worker pool sized
// from GOMAXPROCS; a single model fit is serial.
// Every parallel loop writes disjoint result slots and folds reductions in
// index order, so results are bitwise-identical to sequential execution —
// SetSequential trades latency, never accuracy.

// SetSequential forces every engine loop onto the inline serial path. It
// returns the previous setting; reproducibility harnesses use it as the
// oracle that parallel runs are compared against. A process run with
// GOMAXPROCS=1 takes the same path, since every loop is then one worker
// wide.
func SetSequential(on bool) (previous bool) { return parallel.SetSequential(on) }

// EngineWorkers reports the effective worker-pool size the engine would
// use for a large loop right now.
func EngineWorkers() int { return parallel.Workers() }
