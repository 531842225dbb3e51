// Package cataero is a computational aerothermodynamics (CAT) toolkit: a Go
// reproduction of the system surveyed in Deiwert & Green, "Computational
// Aerothermodynamics" (NASA TM-89450 / Supercomputing '89). It couples the
// paper's four-solver hierarchy — viscous shock layer (VSL), Euler +
// boundary layer (E+BL), parabolized Navier-Stokes (PNS) and Navier-Stokes
// (NS) — to a shared real-gas model stack: Gibbs equilibrium and finite-rate
// air/Titan chemistry, two-temperature thermodynamic nonequilibrium, and
// tangent-slab spectral radiation.
//
// # Architecture
//
// The primary entry point is the Session: a reusable pipeline constructed
// once via functional options,
//
//	s := cataero.NewSession(cataero.WithChemistry(cataero.EquilibriumAir),
//		cataero.WithWorkers(8))
//	run := s.Submit(ctx, cataero.Problem{Class: cataero.NS, ...})
//	snap := run.Snapshot()       // live: phase, step count, residual
//	env, err := run.Wait()       // block for the result
//	results, err := s.SolveBatch(ctx, problems) // concurrent sweep
//
// Submit returns immediately with a Run handle exposing live progress
// (Snapshot/Watch), cancellation (Cancel) and the eventual result (Wait);
// Solve and SolveBatch are thin blocking wrappers over submitted runs. A
// session owns lazily-built, cached model stacks (one per chemistry), a
// keyed cache of tabulated equilibrium EOS tables, and one shared worker
// pool serving every solve, so repeated NS or shock-shape solves build each
// table exactly once and concurrent sweeps keep a fixed resident worker
// count. Behind the session, every solver class resolves through one static
// table in internal/core. Contexts are threaded into the solver iteration
// loops, so sweeps cancel promptly.
//
// Problems also have a declarative form: a Problem's JSON encoding is a
// case file (LoadCase, SaveCase), with named body shapes standing in for
// the geometry.Body interface, runnable from the command line via
// `catsim run case.json`.
//
// The public surface also re-exports the core problem/environment types and
// provides one runner per figure of the paper's evaluation (Figs. 1-9); the
// internal packages carry the substrates (thermo, chem, transport, gas,
// radiation, atmosphere, geometry, grid, fvm, shock, shocktube, blayer, vsl,
// pns, euler, ns, freeflight).
package cataero

import (
	"cataero/internal/core"
	"cataero/internal/fvm"
)

// Version identifies the toolkit release; ledger entries record it as
// solver-provenance metadata.
const Version = "0.9.0"

// Problem is a complete aerothermal case specification. See core.Problem.
type Problem = core.Problem

// Environment is the aerothermal-environment report of a solve.
type Environment = core.Environment

// SurfacePoint is one station of a surface heating/pressure distribution.
type SurfacePoint = core.SurfacePoint

// ShockEnvelope is the result of an Euler bow-shock solve.
type ShockEnvelope = core.ShockEnvelope

// SolverClass selects one of the paper's four equation sets.
type SolverClass = core.SolverClass

// Solver classes.
const (
	VSL = core.VSL
	EBL = core.EBL
	PNS = core.PNS
	NS  = core.NS
)

// GasChemistry selects the real-gas treatment of a Problem.
type GasChemistry = core.GasChemistry

// Chemistry models. ChemistryUnset defers to the session default (see
// WithChemistry); a problem that leaves Chemistry unset on a session with
// no default resolves to ideal gas.
const (
	ChemistryUnset   = core.ChemistryUnset
	IdealGas         = core.IdealGas
	EquilibriumAir   = core.EquilibriumAir
	EquilibriumTitan = core.EquilibriumTitan
)

// Toggle is a tri-state per-problem switch over a session default (see
// Problem.GridSequencing): the zero value defers to the session, ToggleOn
// and ToggleOff force the feature regardless of the session's setting.
type Toggle = core.Toggle

// Toggle states.
const (
	ToggleDefault = core.ToggleDefault
	ToggleOn      = core.ToggleOn
	ToggleOff     = core.ToggleOff
)

// Priority is a problem's lane in the session's admission queue (see
// Problem.Priority and WithWorkers): a freed solve slot goes to the oldest
// waiting run in the highest non-empty lane. It never changes a solve or its
// CaseKey.
type Priority = core.Priority

// Admission lanes; the zero value is PriorityNormal.
const (
	PriorityLow    = core.PriorityLow
	PriorityNormal = core.PriorityNormal
	PriorityHigh   = core.PriorityHigh
)

// Monitor observes solver progress (see core.Monitor). Problem.Monitor
// receives every iteration report in addition to the Run handle's own
// snapshot tracking.
type Monitor = core.Monitor

// MonitorFunc adapts a function to the Monitor interface.
type MonitorFunc = core.MonitorFunc

// Progress is one live observation of a running solve.
type Progress = core.Progress

// FluxKernels returns the names of the finite-volume flux kernels,
// ascending — the valid values of Problem.Flux and WithFlux, for
// services and CLIs that validate or enumerate kernels up front.
func FluxKernels() []string { return fvm.FluxKernels() }

// TimeSteppings returns the names of the finite-volume time integrators,
// ascending — the valid values of Problem.TimeStepping and
// WithTimeStepping ("explicit", "implicit").
func TimeSteppings() []string { return fvm.Integrators() }

// ImplicitSweeps returns the valid implicit sweep-pattern names — the
// values of Problem.ImplicitSweep: "jline"
// (wall-normal line relaxation only, the default) and "adi" (alternating
// wall-normal and streamwise block-tridiagonal passes per step).
func ImplicitSweeps() []string { return fvm.ImplicitSweeps() }

// Limiters returns the names of the MUSCL slope limiters, ascending — the
// valid values of Problem.Limiter and WithLimiter ("minmod", "vanalbada").
func Limiters() []string { return fvm.Limiters() }

// CFLRamp tunes the implicit integrator's CFL schedule (see
// Problem.CFLRamp): start low while the transient establishes the shock,
// grow geometrically while the residual keeps falling, cap at Max.
// Zero-valued fields take the solver defaults (start 2, growth 1.25/step,
// max 200); a Growth below 1 is floored at 1 (hold constant) and a Max
// below Start is floored at Start.
type CFLRamp = fvm.CFLRamp

// Checkpoint is a resumable solver-state snapshot taken at a step boundary
// (see Problem.CheckpointEvery / Problem.CheckpointSink / Problem.Restore):
// the conserved field, grid nodes, implicit ramp state and limiter latch,
// with a stable binary encoding (AppendBinary) and a verifying decoder.
type Checkpoint = fvm.Checkpoint

// CheckpointFormat is the checkpoint schema version understood by this
// build; DecodeCheckpoint refuses other versions.
const CheckpointFormat = fvm.CheckpointFormat

// DecodeCheckpoint parses and verifies an encoded checkpoint; any damage —
// truncation, corruption, a foreign format version — is an error, so a torn
// checkpoint file can never be resumed from.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return fvm.DecodeCheckpoint(data) }

// CanonicalJSON returns the canonical JSON encoding of a problem — the
// bytes CaseKey hashes: the case file with the label cleared, every default
// a solve would fill spelled explicitly (core normalization plus the
// finite-volume name defaults) and object keys sorted. Semantically
// identical problems produce identical bytes — the content-addressing basis
// of the run ledger — and the bytes parse back (ParseCase) to a problem
// with the same key.
func CanonicalJSON(p Problem) ([]byte, error) { return core.CanonicalJSON(p) }

// CaseKey returns a problem's content address: the lowercase hex SHA-256 of
// its canonical JSON. Field-order permutations, explicitly spelled defaults
// and report labels all collide onto the same key; any change that affects
// the solve produces a new one. Hash a problem after Session.Normalize so
// session defaults participate in the address.
func CaseKey(p Problem) (string, error) { return core.CaseKey(p) }

// ClassName returns the case-file name of a solver class ("vsl", "ebl",
// "pns", "ns"), or "" for a class without one — the inverse of the names
// accepted by case files.
func ClassName(c SolverClass) string { return core.ClassName(c) }
