package costmodel

// Test-only exports. The model's validation tests live in the external
// costmodel_test package and run the live engine; the unexported internals
// they probe are re-exported here for tests only.
var AxisProb = axisProb
