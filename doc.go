// Package rcbr is the root of a reproduction of Grossglauser, Keshav & Tse,
// "RCBR: A Simple and Efficient Service for Multiple Time-Scale Traffic"
// (ACM SIGCOMM 1995; IEEE/ACM ToN 5(6), 1997). It exports nothing: the code
// lives in internal/, the programs in cmd/, and runnable usage in examples/.
//
// RCBR presents a source with a fixed-size buffer drained at a constant rate
// the source may renegotiate. Because all traffic entering the network is
// CBR, switches need only per-port utilization counters and FIFO queueing,
// and a renegotiation is one lightweight lookup. By section of the paper:
//
//   - II and VIII, the traffic and the descriptors RCBR argues against:
//     trace and fit (the calibrated Star Wars stand-in, a model fitted back
//     from a trace), shaper (token bucket, burstiness curve), rvbr.
//   - III, the service: core (Schedule, CostModel, Source), cell (53-byte RM
//     cells), switchfab (the switch: two lookups and one comparison per
//     renegotiation), netproto (signaling over UDP), vctable (the one VC
//     table both planes index), datapath (the FIFO cell path), mesh
//     (multi-hop paths granted at the minimum along the route), bookahead
//     (advance reservations), live (the service as one loop).
//   - IV, schedules: trellis (the optimal offline schedule), heuristic (the
//     causal online one), queue (the slotted fluid buffer under both).
//   - V, analysis: markov and ld (multiple time-scale sources, Chernoff
//     estimates, effective bandwidths), smg (multiplexing gain, Figs. 5–6).
//   - VI, admission: admission (perfect-knowledge, memoryless and
//     memory-based MBAC), callsim and sim (the call-level experiments),
//     churn (call-scale load on a live switch).
//
// internal/experiments has one entry point per figure, internal/metrics the
// shared registry and event log, internal/stats the RNG and level grids.
//
// Start with examples/quickstart (trace → optimal schedule → replay through
// the buffer), then interactive and storedvideo (a switch over UDP),
// admission and bookahead. cmd/rcbrsim runs every figure and offline tool
// (schedule computes one trace's schedule, trace makes or inspects a trace),
// cmd/rcbrd is the switch daemon; DESIGN.md and EXPERIMENTS.md hold the architecture and the measurements.
package rcbr
