package costmodel

import "repro/internal/geom"

// Test-only exports. The model's validation tests live in the external
// costmodel_test package and run the live engine; the unexported internals
// they probe are re-exported here for tests only.
var AxisProb = axisProb

// MassIn exposes massIn for the histogram tests.
func (h *Histogram) MassIn(r geom.Rect) float64 { return h.massIn(r) }
