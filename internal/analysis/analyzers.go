package analysis

// All returns the repository's analyzer suite in the order rcbrlint runs
// it. The order is stable so diagnostics sort deterministically.
func All() []*Analyzer {
	return []*Analyzer{
		LockScope,
		MetricName,
		SentinelCmp,
		ZeroAlloc,
	}
}
