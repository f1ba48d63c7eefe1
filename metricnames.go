package rcbr

import (
	"rcbr/internal/datapath"
	"rcbr/internal/heuristic"
	"rcbr/internal/mesh"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

// Metric names, re-exported for Snapshot lookups and dashboard wiring.
//
// Each name is owned by exactly one internal package — the one that
// registers the instrument — and every other package (this facade
// included) re-exports the owning constant instead of redeclaring the
// string. rcbrlint's metricname analyzer enforces both halves: names come
// from Metric* constants, and a literal declared in two packages is a
// finding. That keeps the README metric tables, the facade, and the
// instrumented code pointing at the same strings forever.
const (
	// Switch fabric (owner: internal/switchfab).
	MetricSwitchSetups        = switchfab.MetricSetups
	MetricSwitchSetupRejects  = switchfab.MetricSetupRejects
	MetricSwitchTeardowns     = switchfab.MetricTeardowns
	MetricSwitchRenegs        = switchfab.MetricRenegs
	MetricSwitchGrants        = switchfab.MetricGrants
	MetricSwitchPartialGrants = switchfab.MetricPartialGrants
	MetricSwitchDenials       = switchfab.MetricDenials
	MetricSwitchResyncs       = switchfab.MetricResyncs
	MetricSwitchDupDrops      = switchfab.MetricDupDrops
	MetricSwitchRenegLatency  = switchfab.MetricRenegLatency
	MetricSwitchClamps        = switchfab.MetricReservedClamped
	MetricSwitchSetupLatency  = switchfab.MetricSetupLatency
	MetricSwitchAdmitLatency  = switchfab.MetricAdmitLatency

	// Signaling client (owner: internal/netproto).
	MetricSignalClientRequests = netproto.MetricClientRequests
	MetricSignalClientSent     = netproto.MetricClientSent
	MetricSignalClientRecv     = netproto.MetricClientRecv
	MetricSignalClientRetries  = netproto.MetricClientRetries
	MetricSignalClientTimeouts = netproto.MetricClientTimeouts
	MetricSignalClientRMSent   = netproto.MetricClientRMSent
	MetricSignalClientRMRecv   = netproto.MetricClientRMRecv
	MetricSignalClientRTT      = netproto.MetricClientRTT

	// Coalesced renegotiation (owner: internal/netproto).
	MetricSignalClientBatches       = netproto.MetricClientBatches
	MetricSignalClientBatchCells    = netproto.MetricClientBatchCells
	MetricSignalClientBatchFallback = netproto.MetricClientBatchFallbacks
	MetricSignalServerBatchCells    = netproto.MetricServerBatchCells

	// Signaling server (owner: internal/netproto).
	MetricSignalServerRx         = netproto.MetricServerRx
	MetricSignalServerTx         = netproto.MetricServerTx
	MetricSignalServerBadFrames  = netproto.MetricServerBadFrames
	MetricSignalServerSetups     = netproto.MetricServerSetups
	MetricSignalServerTeardowns  = netproto.MetricServerTeardowns
	MetricSignalServerRM         = netproto.MetricServerRM
	MetricSignalServerErrors     = netproto.MetricServerErrors
	MetricSignalServerDropped    = netproto.MetricServerDropped
	MetricSignalServerReadErrors = netproto.MetricServerReadErrors

	// Renegotiation heuristic (owner: internal/heuristic).
	MetricHeuristicTriggers      = heuristic.MetricTriggers
	MetricHeuristicFailures      = heuristic.MetricFailures
	MetricHeuristicHighCrossings = heuristic.MetricHighCrossings
	MetricHeuristicLowCrossings  = heuristic.MetricLowCrossings
	MetricHeuristicRateGauge     = heuristic.MetricRateGauge
	MetricHeuristicOccupancy     = heuristic.MetricOccupancy

	// Cell data path (owner: internal/datapath).
	MetricDataPathCellsArrived     = datapath.MetricCellsArrived
	MetricDataPathCellsForwarded   = datapath.MetricCellsForwarded
	MetricDataPathCellsPoliced     = datapath.MetricCellsPoliced
	MetricDataPathCellsOverflow    = datapath.MetricCellsOverflow
	MetricDataPathCellsUnroutable  = datapath.MetricCellsUnroutable
	MetricDataPathCellsBadHeader   = datapath.MetricCellsBadHeader
	MetricDataPathCellsTransmitted = datapath.MetricCellsTransmitted
	MetricDataPathForwardBatches   = datapath.MetricForwardBatches
	MetricDataPathVCMisses         = datapath.MetricVCMisses
	MetricDataPathBatchCells       = datapath.MetricBatchCells

	// Multi-hop mesh (owner: internal/mesh).
	MetricMeshSetups        = mesh.MetricMeshSetups
	MetricMeshSetupFails    = mesh.MetricMeshSetupFails
	MetricMeshTeardowns     = mesh.MetricMeshTeardowns
	MetricMeshRenegs        = mesh.MetricMeshRenegs
	MetricMeshGrants        = mesh.MetricMeshGrants
	MetricMeshPartialGrants = mesh.MetricMeshPartials
	MetricMeshDenials       = mesh.MetricMeshDenials
	MetricMeshRollbackHops  = mesh.MetricMeshRollbackHops
	MetricMeshHopTimeouts   = mesh.MetricMeshHopTimeouts
)

// SwitchPortReservedGauge returns the per-port reserved-rate gauge name
// ("switch.port.<n>.reserved_bps").
func SwitchPortReservedGauge(port int) string { return switchfab.PortReservedGauge(port) }

// SwitchPortCapacityGauge returns the per-port capacity gauge name
// ("switch.port.<n>.capacity_bps").
func SwitchPortCapacityGauge(port int) string { return switchfab.PortCapacityGauge(port) }
