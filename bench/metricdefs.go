package main

import "fmt"

// metricDef names one reported metric and its unit. The two tables below
// are the driver's half of BENCHMARK.json; TestBenchmarkFileMatchesDriver
// holds them equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the switch sees. Every workload reports every
// one of them, so each has a per-workload meaning (README.md, "End-to-end
// metrics"): work is cells, renegotiations or source frames; op is the
// forwarding cycle, the control operation, the renegotiation round trip or
// one frame of every source. The three timings are read at their
// undisturbed quartile (stats.go).
var endToEnd = []metricDef{
	{"work_per_s", "1/s"},
	{"op_p25_us", "us"},
	{"bytes_per_vc", "B"},
	{"setup_s", "s"},
}

// perLayer is one module's share. A metric a workload does not exercise
// reads 0 there. Stage probes (probes.go) read the same on every workload.
var perLayer = []metricDef{
	// cell
	{"cell.parse_header_ns", "ns"},
	{"cell.put_data_ns", "ns"},
	{"cell.parse_data_ns", "ns"},
	{"cell.rm_build_parse_ns", "ns"},
	// shaper
	{"shaper.tick_take_ns", "ns"},
	// datapath
	{"datapath.inject_ns_per_cell", "ns"},
	{"datapath.forward_ns_per_cell", "ns"},
	{"datapath.transmit_ns_per_cell", "ns"},
	{"datapath.spsc_ns", "ns"},
	{"datapath.mpsc_ns", "ns"},
	{"datapath.unattributed_ns_per_cell", "ns"},
	{"datapath.add_vc_ns", "ns"},
	{"datapath.remove_vc_ns", "ns"},
	{"datapath.set_rate_ns", "ns"},
	{"datapath.batch_fill", "share"},
	{"datapath.policed_share", "share"},
	{"datapath.overflow_share", "share"},
	{"datapath.unroutable_share", "share"},
	{"datapath.egress_hwm_cells", "count"},
	{"datapath.allocs_per_cell", "count"},
	// switchfab
	{"switchfab.handle_rm_ns", "ns"},
	{"switchfab.renegotiate_ns", "ns"},
	{"switchfab.setup_ns", "ns"},
	{"switchfab.teardown_ns", "ns"},
	{"switchfab.denied_share", "share"},
	{"switchfab.ctl_op_p99_us", "us"},
	// admission
	{"admission.admit_ns", "ns"},
	// netproto
	{"netproto.encode_decode_ns", "ns"},
	{"netproto.udp_echo_p50_us", "us"},
	{"netproto.overhead_p50_us", "us"},
	{"netproto.rtt_p99_us", "us"},
	{"netproto.retries", "count"},
	{"netproto.server_drops", "count"},
	// mesh
	{"mesh.path_reneg_inproc_ns", "ns"},
	{"mesh.cellpath_step_ns_per_slot", "ns"},
	{"mesh.reneg_enforced_p50_us", "us"},
	{"mesh.reneg_p99_us", "us"},
	{"mesh.rollbacks", "count"},
	// heuristic and trace
	{"heuristic.step_ns", "ns"},
	{"heuristic.renegs_per_source_s", "1/s"},
	{"trace.synth_ns_per_frame", "ns"},
	// metrics
	{"metrics.counter_inc_ns", "ns"},
	{"metrics.histogram_observe_ns", "ns"},
	{"metrics.registry_cost_share", "share"},
	// loop quality: exact counts in virtual time on loop-3hop
	{"loop.cell_loss_share", "share"},
	{"loop.cell_delay_mean_slots", "slots"},
	{"loop.cell_delay_max_slots", "slots"},
	{"loop.reneg_denied_share", "share"},
	{"loop.bw_efficiency", "share"},
	// the driver itself
	{"bench.gen_lag_p99_us", "us"},
	{"bench.window_spread", "share"},
	{"bench.trace_overhead_share", "share"},
	{"bench.gc_pause_ms", "ms"},
}

// metricSet holds the values of one run, restricted to the names of one
// table, with the sample count behind each timing and the percentile a
// tail metric actually reports.
type metricSet struct {
	defs        []metricDef
	values      map[string]float64
	samples     map[string]int
	percentiles map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{
		defs:        defs,
		values:      make(map[string]float64),
		samples:     make(map[string]int),
		percentiles: make(map[string]float64),
	}
}

// set stores a value; a name outside the table is a driver bug.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the table", name))
}

// setTimed stores a timing with its sample count.
func (m *metricSet) setTimed(name string, v float64, n int) {
	m.set(name, v)
	m.samples[name] = n
}

// setTail stores the highest percentile of sorted (nanoseconds) that the
// sample supports, in microseconds, and records which one that was.
func (m *metricSet) setTail(name string, sorted []int64) {
	p := tailPercentile(len(sorted))
	m.setTimed(name, quantile(sorted, p/100)/1e3, len(sorted))
	m.percentiles[name] = p
}
