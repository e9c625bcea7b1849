// The benchmark is a module of its own so it builds from its own directory;
// the replace directive points at the engine one level up, and the import
// path keeps the relalg/ prefix so relalg/internal/... stays importable.
module relalg/benchmark

go 1.22

require relalg v0.0.0

replace relalg => ../
