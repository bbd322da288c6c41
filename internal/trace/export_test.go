package trace

// CheckMinerEquivalence exposes the reference-miner comparison to the
// external test package, which can measure real kernels.
var CheckMinerEquivalence = checkMinerEquivalence
