// Package api defines the wire types shared by every machine-facing
// surface of the back-end: the balsabmd HTTP daemon, its Go client,
// and the CLI's -json output. The CLI encodes a local flow run with
// the exact same structs the server uses for its responses, so a
// result fetched over HTTP is byte-identical to one computed in
// process — which is what the end-to-end tests assert.
//
// It also holds FlowConfig, the extracted flow setup both entry
// points build their flow.Options from.
package api

import (
	"encoding/json"
	"fmt"

	"balsabm/internal/core"
	"balsabm/internal/diag"
	"balsabm/internal/flow"
	"balsabm/internal/netlint"
	"balsabm/internal/store"
)

// FlowConfig is the serializable subset of the flow's tuning knobs —
// the ones a remote caller may set. It is the single flow-setup
// struct shared by the CLI and the daemon.
type FlowConfig struct {
	// Workers bounds the per-run worker pool; 0 means all CPU cores.
	// It never changes results (the flow is deterministic at any
	// worker count), so it is excluded from dedup keys.
	Workers int `json:"workers,omitempty"`
	// MaxStates bounds the Burst-Mode state count of clustered
	// controllers (0 = unlimited).
	MaxStates int `json:"maxStates,omitempty"`
	// SkipAudit disables the exhaustive hazard audit of mapped
	// optimized controllers.
	SkipAudit bool `json:"skipAudit,omitempty"`
	// TimeLimit and EventLimit bound each benchmark simulation
	// (0 = the flow defaults).
	TimeLimit  float64 `json:"timeLimit,omitempty"`
	EventLimit int64   `json:"eventLimit,omitempty"`
}

// Options builds the flow configuration for one run, attaching the
// given metrics sink (nil for none).
func (c FlowConfig) Options(met *flow.Metrics) *flow.Options {
	return &flow.Options{
		Cluster:    core.Options{MaxStates: c.MaxStates},
		SkipAudit:  c.SkipAudit,
		TimeLimit:  c.TimeLimit,
		EventLimit: c.EventLimit,
		Workers:    c.Workers,
		Metrics:    met,
	}
}

// Key renders the result-affecting knobs as a deterministic dedup-key
// fragment. Workers is deliberately omitted: the flow produces
// identical results at any worker count.
func (c FlowConfig) Key() string {
	return fmt.Sprintf("maxStates=%d|skipAudit=%t|timeLimit=%g|eventLimit=%d",
		c.MaxStates, c.SkipAudit, c.TimeLimit, c.EventLimit)
}

// Job kinds accepted by the daemon.
const (
	// KindDesign runs the full two-arm flow (synthesis + benchmark
	// simulation) on one named built-in design.
	KindDesign = "design"
	// KindTable3 runs the full flow on all Table 3 designs.
	KindTable3 = "table3"
	// KindSynth synthesizes a submitted design (CH control netlist or
	// Balsa source) into mapped gate netlists, without simulation.
	KindSynth = "synth"
)

// Source formats for KindSynth.
const (
	FormatCH    = "ch"    // a CH control netlist: one or more (program ...) forms
	FormatBalsa = "balsa" // Balsa-subset source text
)

// FormatBMS is a Burst-Mode specification in .bms text form; accepted
// only by the bmlint checker, which lints the spec directly instead of
// compiling a design.
const FormatBMS = "bms"

// Synthesis modes for KindSynth.
const (
	// ModeUnopt is the baseline arm: the netlist as submitted,
	// area-shared mapping (hand-library shapes where they apply).
	ModeUnopt = "unopt"
	// ModeOpt is the paper's arm: clustering, then speed-split
	// mapping. The default.
	ModeOpt = "opt"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobRequest is the body of POST /api/v1/jobs.
type JobRequest struct {
	Kind   string     `json:"kind"`
	Design string     `json:"design,omitempty"` // KindDesign: a built-in design name
	Source string     `json:"source,omitempty"` // KindSynth: design text
	Format string     `json:"format,omitempty"` // KindSynth: "ch" (default) or "balsa"
	Name   string     `json:"name,omitempty"`   // KindSynth+balsa: design name for the compiler
	Mode   string     `json:"mode,omitempty"`   // KindSynth: "opt" (default) or "unopt"
	Config FlowConfig `json:"config"`
	// BaseJobID marks an incremental resubmission: the ID of a prior
	// job this request is an edit of. Submission fails if the ID is
	// unknown. It never changes the result — the daemon's controller
	// cache already reuses every unchanged canonical subtree — so it is
	// excluded from the dedup key; it declares intent and is echoed in
	// JobStatus so clients can correlate edit loops.
	BaseJobID string `json:"baseJobID,omitempty"`
}

// JobStatus describes one job.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Dedup reports that the job's result came from the dedup cache —
	// an identical design (same canonical key) was already synthesized
	// or in flight, so this job did not re-run the flow.
	Dedup bool `json:"dedup,omitempty"`
	// Key is the job's canonical dedup key digest.
	Key string `json:"key,omitempty"`
	// Disk reports that the job's result came from the on-disk artifact
	// cache — a prior daemon run (or an earlier job this run) already
	// synthesized the identical design and its blob survived restart.
	Disk bool `json:"disk,omitempty"`
	// ResumedFrom names the last pipeline stage checkpointed before the
	// daemon was interrupted, for jobs re-enqueued from the journal at
	// boot; completed stages restore from disk instead of recomputing.
	ResumedFrom string `json:"resumedFrom,omitempty"`
	// BaseJobID echoes the incremental base named in the request.
	BaseJobID string `json:"baseJobID,omitempty"`
	// ControllersReused / ControllersResynthesized report the job's
	// incremental resynthesis split: distinct canonical controller
	// shapes spliced in from the controller cache vs. synthesized
	// afresh. Zero for dedup- and disk-served jobs, which never reached
	// the synthesis layer.
	ControllersReused        int64  `json:"controllersReused,omitempty"`
	ControllersResynthesized int64  `json:"controllersResynthesized,omitempty"`
	Error                    string `json:"error,omitempty"`
	Created                  string `json:"created,omitempty"`
	Started                  string `json:"started,omitempty"`
	Finished                 string `json:"finished,omitempty"`
}

// ControllerJSON mirrors flow.ControllerResult.
type ControllerJSON struct {
	Name      string  `json:"name"`
	States    int     `json:"states"`
	StateBits int     `json:"stateBits"`
	Products  int     `json:"products"`
	Cells     int     `json:"cells"`
	Area      float64 `json:"area"`
	Critical  float64 `json:"critical"`
	// Exact reports the controller minimized entirely on the exact
	// path (no greedy fallback in enumeration or covering).
	Exact bool `json:"exact"`
}

// ArmJSON mirrors flow.ArmResult.
type ArmJSON struct {
	Controllers  []ControllerJSON `json:"controllers"`
	ControlArea  float64          `json:"controlArea"`
	DatapathArea float64          `json:"datapathArea"`
	BenchTime    float64          `json:"benchTime"`
	Events       int64            `json:"events"`
	TotalArea    float64          `json:"totalArea"`
	// Static is the netlint static report for the arm's merged control
	// circuit.
	Static netlint.Stats `json:"static"`
}

// MergeJSON mirrors core.Merge.
type MergeJSON struct {
	Channel   string `json:"channel"`
	Activator string `json:"activator"`
	Activated string `json:"activated"`
	Result    string `json:"result"`
}

// ReportJSON mirrors core.Report.
type ReportJSON struct {
	Merges        []MergeJSON       `json:"merges,omitempty"`
	Skipped       []string          `json:"skipped,omitempty"`
	CallsSplit    []string          `json:"callsSplit,omitempty"`
	CallsRestored []string          `json:"callsRestored,omitempty"`
	Containment   map[string]string `json:"containment,omitempty"`
}

// DesignResultJSON is one Table 3 row with full per-controller detail.
type DesignResultJSON struct {
	Design              string      `json:"design"`
	Bench               string      `json:"bench"`
	Unopt               ArmJSON     `json:"unopt"`
	Opt                 ArmJSON     `json:"opt"`
	SpeedImprovementPct float64     `json:"speedImprovementPct"`
	AreaOverheadPct     float64     `json:"areaOverheadPct"`
	Report              *ReportJSON `json:"report,omitempty"`
}

// SynthControllerJSON is one synthesized controller of a KindSynth
// job: its summary numbers and its mapped netlist as structural
// Verilog.
type SynthControllerJSON struct {
	Controller ControllerJSON `json:"controller"`
	Verilog    string         `json:"verilog"`
}

// SynthResultJSON is the result of a KindSynth job.
type SynthResultJSON struct {
	Mode        string                `json:"mode"`
	Controllers []SynthControllerJSON `json:"controllers"`
	Report      *ReportJSON           `json:"report,omitempty"`
	// Netlint is the structural audit of the merged circuit of all
	// synthesized controllers (gates.Merge wiring).
	Netlint *CheckReportJSON `json:"netlint,omitempty"`
	// Hazver is the static hazard verification of the synthesized
	// controller shapes on their specified bursts.
	Hazver *CheckReportJSON `json:"hazver,omitempty"`
}

// JobResult is the body of GET /api/v1/jobs/{id}/result; exactly one
// of the payload fields is set, matching the job's kind.
type JobResult struct {
	Kind   string              `json:"kind"`
	Design *DesignResultJSON   `json:"design,omitempty"`
	Table3 []*DesignResultJSON `json:"table3,omitempty"`
	Synth  *SynthResultJSON    `json:"synth,omitempty"`
}

// Event is one element of a job's progress stream.
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "state", "stage", "checkpoint", "lint", "error"
	// State carries the new job state for "state" events.
	State string `json:"state,omitempty"`
	// Dedup marks the terminal "state" event of a dedup-served job.
	Dedup bool `json:"dedup,omitempty"`
	// Disk marks the terminal "state" event of a job served from the
	// on-disk artifact cache.
	Disk bool `json:"disk,omitempty"`
	// Stage carries the persisted stage name for "checkpoint" events
	// (emitted when a pipeline stage's payload lands in the durable
	// store), and cumulative per-stage counters for "stage" events (see
	// parallel.Timings).
	Stage       string `json:"stage,omitempty"`
	Count       int64  `json:"count,omitempty"`
	TotalMicros int64  `json:"totalMicros,omitempty"`
	// ControllersReused / ControllersResynthesized ride the terminal
	// "state" event of an executed job: its incremental resynthesis
	// split (see JobStatus).
	ControllersReused        int64  `json:"controllersReused,omitempty"`
	ControllersResynthesized int64  `json:"controllersResynthesized,omitempty"`
	Error                    string `json:"error,omitempty"`
	// Diag carries one gate finding for "lint" events: a non-error
	// diagnostic one of the flow's gates surfaced, tagged with its
	// checker and the unit it was found in (e.g. "stack.opt").
	Diag *DiagJSON `json:"diag,omitempty"`
}

// StageJSON is one pipeline stage's cumulative counters.
type StageJSON struct {
	Count       int64 `json:"count"`
	TotalMicros int64 `json:"totalMicros"`
}

// MetricsJSON is the JSON form of the daemon's counters
// (GET /api/v1/metrics; /metrics serves the same data in Prometheus
// text format).
type MetricsJSON struct {
	JobsByState     map[string]int64 `json:"jobsByState"`
	QueueDepth      int64            `json:"queueDepth"`
	DedupHits       int64            `json:"dedupHits"`
	DedupMisses     int64            `json:"dedupMisses"`
	FlowCacheHits   int64            `json:"flowCacheHits"`
	FlowCacheMisses int64            `json:"flowCacheMisses"`
	// Minimizer work counters aggregated over every flow the daemon
	// ran: functions minimized on the exact path vs. with a greedy
	// fallback, and nodes visited by the prime enumeration and the
	// covering branch-and-bound.
	MinimizeExact  int64                `json:"minimizeExact"`
	MinimizeGreedy int64                `json:"minimizeGreedy"`
	EnumNodes      int64                `json:"enumNodes"`
	BranchNodes    int64                `json:"branchNodes"`
	Stages         map[string]StageJSON `json:"stages"`
	// Result-cache tiers: a submitted job is answered from the on-disk
	// artifact store (StoreDiskHits), the in-memory single-flight memo
	// (StoreMemHits), or executes the flow afresh (StoreMisses).
	StoreDiskHits int64 `json:"storeDiskHits"`
	StoreMemHits  int64 `json:"storeMemHits"`
	StoreMisses   int64 `json:"storeMisses"`
	// JobsResumed counts jobs re-enqueued from the journal at boot —
	// submissions that never reached a terminal state before the
	// previous daemon process stopped.
	JobsResumed int64 `json:"jobsResumed"`
	// Checkpoint traffic across every executed job: stages persisted to
	// the durable store and stages restored from it.
	CheckpointsSaved    int64 `json:"checkpointsSaved"`
	CheckpointsRestored int64 `json:"checkpointsRestored"`
	// Incremental resynthesis split across every executed job: distinct
	// canonical controller shapes served from the controller-grain
	// artifact cache vs. synthesized afresh (also exported as
	// balsabmd_incremental_controllers_total{outcome=...}).
	ControllersReused        int64 `json:"controllersReused"`
	ControllersResynthesized int64 `json:"controllersResynthesized"`
	// Store summarizes the artifact cache on disk; present only when the
	// daemon runs with a data directory.
	Store *StoreStatsJSON `json:"store,omitempty"`
	// Diags counts gate diagnostics by checker, then code, across every
	// flow the daemon ran: the non-error findings its gates recorded
	// plus the error findings of a gate that failed a job (also
	// exported as balsabmd_diags_total{checker=...,code=...}).
	Diags map[string]map[string]int64 `json:"diags,omitempty"`
}

// StoreStatsJSON summarizes the daemon's on-disk artifact store
// (mirrors store.Stats; present in MetricsJSON only when the daemon
// runs with a data directory). `balsabm cache stats -json` emits the
// same shape, so scripts read one schema for both surfaces.
type StoreStatsJSON struct {
	Artifacts     int   `json:"artifacts"`
	ArtifactBytes int64 `json:"artifactBytes"`
	Refs          int   `json:"refs"`
	// ControllerRefs counts controller-grain refs — the durable tier
	// behind incremental resynthesis.
	ControllerRefs int `json:"controllerRefs"`
	Checkpoints    int `json:"checkpoints"`
	// Corrupt counts artifacts that failed read-back verification this
	// daemon session (each was removed and recomputed).
	Corrupt int64 `json:"corrupt"`
}

// FromStoreStats converts a store summary to its wire form — the one
// conversion both the daemon's /metrics and `balsabm cache stats
// -json` go through, so the two surfaces agree byte for byte.
func FromStoreStats(st store.Stats) *StoreStatsJSON {
	return &StoreStatsJSON{
		Artifacts:      st.Artifacts,
		ArtifactBytes:  st.ArtifactBytes,
		Refs:           st.Refs,
		ControllerRefs: st.ControllerRefs,
		Checkpoints:    st.Checkpoints,
		Corrupt:        st.Corrupt,
	}
}

// FromControllerResult converts one controller summary.
func FromControllerResult(c flow.ControllerResult) ControllerJSON {
	return ControllerJSON{
		Name: c.Name, States: c.States, StateBits: c.StateBits,
		Products: c.Products, Cells: c.Cells, Area: c.Area, Critical: c.Critical,
		Exact: c.Exact,
	}
}

// FromArmResult converts one flow arm.
func FromArmResult(a flow.ArmResult) ArmJSON {
	out := ArmJSON{
		ControlArea:  a.ControlArea,
		DatapathArea: a.DatapathArea,
		BenchTime:    a.BenchTime,
		Events:       a.Events,
		TotalArea:    a.TotalArea(),
		Static:       a.Static,
		Controllers:  make([]ControllerJSON, 0, len(a.Controllers)),
	}
	for _, c := range a.Controllers {
		out.Controllers = append(out.Controllers, FromControllerResult(c))
	}
	return out
}

// FromReport converts a clustering report (nil in, nil out).
func FromReport(rep *core.Report) *ReportJSON {
	if rep == nil {
		return nil
	}
	out := &ReportJSON{
		Skipped:       rep.Skipped,
		CallsSplit:    rep.CallsSplit,
		CallsRestored: rep.CallsRestored,
		Containment:   rep.Containment,
	}
	for _, m := range rep.Merges {
		out.Merges = append(out.Merges, MergeJSON{
			Channel: m.Channel, Activator: m.Activator,
			Activated: m.Activated, Result: m.Result,
		})
	}
	return out
}

// FromDesignResult converts one Table 3 row.
func FromDesignResult(r *flow.DesignResult) *DesignResultJSON {
	return &DesignResultJSON{
		Design:              r.Design,
		Bench:               r.Bench,
		Unopt:               FromArmResult(r.Unopt),
		Opt:                 FromArmResult(r.Opt),
		SpeedImprovementPct: r.SpeedImprovement(),
		AreaOverheadPct:     r.AreaOverhead(),
		Report:              FromReport(r.Report),
	}
}

// FromDesignResults converts a result list in order.
func FromDesignResults(rs []*flow.DesignResult) []*DesignResultJSON {
	out := make([]*DesignResultJSON, len(rs))
	for i, r := range rs {
		out[i] = FromDesignResult(r)
	}
	return out
}

// ToFlow converts a wire-form row back into the flow's result type,
// so remote results render through the same Table 3 / flow-report
// formatters as local ones.
func (d *DesignResultJSON) ToFlow() *flow.DesignResult {
	arm := func(a ArmJSON) flow.ArmResult {
		out := flow.ArmResult{
			ControlArea:  a.ControlArea,
			DatapathArea: a.DatapathArea,
			BenchTime:    a.BenchTime,
			Events:       a.Events,
			Static:       a.Static,
			Controllers:  make([]flow.ControllerResult, 0, len(a.Controllers)),
		}
		for _, c := range a.Controllers {
			out.Controllers = append(out.Controllers, flow.ControllerResult{
				Name: c.Name, States: c.States, StateBits: c.StateBits,
				Products: c.Products, Cells: c.Cells, Area: c.Area, Critical: c.Critical,
				Exact: c.Exact,
			})
		}
		return out
	}
	return &flow.DesignResult{
		Design: d.Design,
		Bench:  d.Bench,
		Unopt:  arm(d.Unopt),
		Opt:    arm(d.Opt),
	}
}

// CheckRequest is the body of POST /api/v1/check/{checker}: the
// netlist to check, given either as Source text in Format ("ch", the
// default, "balsa", or "bms" — one Burst-Mode spec, bmlint only) or as
// the name of a built-in Design. Mode selects the arm for the checkers
// that check one ("opt" or "unopt"; see the server's checker registry
// for each checker's default) and Config tunes the synthesis the
// netlist-level checkers run. File names the source file, the unit
// chlint reports under; Name is the design name the other checkers
// prefix their units with ("design" when empty).
type CheckRequest struct {
	Source string     `json:"source,omitempty"`
	Format string     `json:"format,omitempty"`
	File   string     `json:"file,omitempty"`
	Name   string     `json:"name,omitempty"`
	Design string     `json:"design,omitempty"`
	Mode   string     `json:"mode,omitempty"`
	Config FlowConfig `json:"config"`
}

// DiagJSON is one diagnostic of any checker on the wire. Loc and Tight
// are the checker's own rendering of the location (diag.Loc.Fragment)
// and Key is its sort key (diag.Loc.Key), so a decoded diagnostic
// renders through diag's renderer byte-identically to the typed
// original. Checker and Unit tag findings on event streams; inside a
// report, whose Unit names them once, both are empty.
type DiagJSON struct {
	Checker  string   `json:"checker,omitempty"`
	Unit     string   `json:"unit,omitempty"`
	Loc      string   `json:"loc,omitempty"`
	Tight    bool     `json:"tight,omitempty"`
	Key      [2]int   `json:"key"`
	Severity string   `json:"severity"`
	Code     string   `json:"code"`
	Message  string   `json:"message"`
	Notes    []string `json:"notes,omitempty"`
}

// FromDiag converts one diagnostic of any checker.
func FromDiag[L diag.Loc](d diag.Diag[L]) DiagJSON {
	text, tight := d.Loc.Fragment()
	a, b := d.Loc.Key()
	return DiagJSON{
		Loc:      text,
		Tight:    tight,
		Key:      [2]int{a, b},
		Severity: d.Severity.String(),
		Code:     d.Code,
		Message:  d.Message,
		Notes:    d.Notes,
	}
}

// Diag rebuilds the diagnostic, its location carried as the checker
// rendered it.
func (d DiagJSON) Diag() diag.Diag[diag.Rendered] {
	sev, _ := diag.ParseSeverity(d.Severity)
	return diag.Diag[diag.Rendered]{
		Loc:      diag.Rendered{Text: d.Loc, Tight: d.Tight, A: d.Key[0], B: d.Key[1]},
		Severity: sev,
		Code:     d.Code,
		Message:  d.Message,
		Notes:    d.Notes,
	}
}

// CheckReportJSON is one checked unit — a CH file or design, a
// Burst-Mode spec, a mapped controller or a merged circuit — with the
// checker's static report (bmlint.Stats, netlint.Stats or
// hazver.Stats; absent for chlint), its diagnostics and their severity
// tallies. Stats stay raw JSON on the wire, so a report fetched over
// HTTP re-encodes to the server's bytes.
type CheckReportJSON struct {
	Unit     string          `json:"unit"`
	Stats    json.RawMessage `json:"stats,omitempty"`
	Diags    []DiagJSON      `json:"diags"`
	Errors   int             `json:"errors"`
	Warnings int             `json:"warnings"`
	Infos    int             `json:"infos"`
}

// CheckReport packages one unit's diagnostics and static report (nil
// for none) for the wire. Diags is always non-nil so a clean unit
// encodes as [] rather than null.
func CheckReport[L diag.Loc](unit string, stats any, ds []diag.Diag[L]) CheckReportJSON {
	out := CheckReportJSON{Unit: unit, Diags: make([]DiagJSON, 0, len(ds))}
	if stats != nil {
		out.Stats, _ = json.Marshal(stats) // checker stats are plain structs
	}
	for _, d := range ds {
		out.Diags = append(out.Diags, FromDiag(d))
	}
	out.Errors, out.Warnings, out.Infos = diag.Count(ds)
	return out
}

// Format renders the report's diagnostics vet-style under its unit:
// the bytes diag.Format gives for the typed originals.
func (r CheckReportJSON) Format() string {
	ds := make([]diag.Diag[diag.Rendered], len(r.Diags))
	for i, d := range r.Diags {
		ds[i] = d.Diag()
	}
	return diag.Format(ds, r.Unit)
}

// CheckResultJSON is the body answered by POST /api/v1/check/{checker}
// and printed by the CLI's checker subcommands under -json: the
// checker, the arm it checked (empty when it checked the netlist as
// written) and one report per checked unit.
type CheckResultJSON struct {
	Checker string            `json:"checker"`
	Mode    string            `json:"mode,omitempty"`
	Reports []CheckReportJSON `json:"reports"`
}

// Errors counts the error-severity findings across every report.
func (r *CheckResultJSON) Errors() int {
	n := 0
	for _, rep := range r.Reports {
		n += rep.Errors
	}
	return n
}

// AuditCheckerJSON is one checker's tally inside an audit: its
// error/warning counts and how many items it covered (specs, covers,
// mapped controllers, circuits, bursts — whichever the checker
// counts).
type AuditCheckerJSON struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Checked  int `json:"checked"`
}

// AuditResultJSON is one design's six-checker audit in machine form —
// the body emitted per design by `balsabm audit -json`. Checkers is
// keyed "chlint", "bmlint", "covers", "mapped", "netlint", "hazver".
type AuditResultJSON struct {
	Design   string                      `json:"design"`
	OK       bool                        `json:"ok"`
	Summary  string                      `json:"summary"`
	Checkers map[string]AuditCheckerJSON `json:"checkers"`
	Failures []string                    `json:"failures,omitempty"`
	Errors   int                         `json:"errors"`
	Warnings int                         `json:"warnings"`
}

// FromAuditResult converts one design audit to its wire form.
func FromAuditResult(a *flow.AuditResult) *AuditResultJSON {
	checkers := map[string]AuditCheckerJSON{}
	for _, t := range a.Tallies() {
		checkers[t.Checker] = AuditCheckerJSON{Errors: t.Errors, Warnings: t.Warnings, Checked: t.Checked}
	}
	return &AuditResultJSON{
		Design:   a.Design,
		OK:       a.OK(),
		Summary:  a.Summary(),
		Checkers: checkers,
		Failures: a.Failures,
		Errors:   a.Errors(),
		Warnings: a.Warnings(),
	}
}

// Encode renders any wire value in the canonical machine-readable
// form: two-space-indented JSON with a trailing newline. Both the
// server responses and the CLI's -json output go through this one
// encoder, so equal values encode to equal bytes everywhere.
func Encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
