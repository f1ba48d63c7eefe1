package analysis_test

import (
	"testing"

	"rcbr/internal/analysis"
	"rcbr/internal/analysis/analysistest"
)

func TestMetricName(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MetricName, "metricname", "metricname/sub")
}

func TestLockScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockScope, "lockscope")
}

// TestSentinelCmp also covers the test-file policy: sentinelcmp declares
// Tests, so the violation seeded in sentinelcmp_test.go must be reported.
func TestSentinelCmp(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.SentinelCmp, "sentinelcmp")
}

// TestZeroAlloc covers the //rcbr:zeroalloc annotation: every
// allocation-inducing construct class, the cold-error-path exemption, and
// line-scoped ignores.
func TestZeroAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ZeroAlloc, "zeroalloc")
}
