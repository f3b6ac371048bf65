package stats

// Below exposes the Bool threshold to the external exactness tests.
var Below = below
