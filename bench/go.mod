// The benchmark is its own module so it builds from its own directory
// (run.sh, or `go run -C bench .`); the replace directive points it at
// the repository it measures.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
