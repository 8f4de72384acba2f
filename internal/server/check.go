package server

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"balsabm/internal/analysis"
	"balsabm/internal/api"
	"balsabm/internal/bmlint"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/hazver"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

// Checker is one entry of the checker registry: a checker tier's
// identity (flow.Checker: its name, its gate and the headline of a
// multi-finding abort), its diagnostic code table, the arms the CLI
// checks each built-in design in, and how a check request becomes
// reports. POST /api/v1/check/{checker}, Client.Check and the CLI's
// checker subcommands all dispatch through RunCheck over this table,
// so adding a checker takes its package, a flow.Checker, one entry
// here and its tests.
type Checker struct {
	flow.Checker
	// Codes maps the checker's stable codes to their meanings; every
	// code label of balsabmd_diags_total{checker=Name} is drawn from it.
	Codes map[string]string
	// Arms lists the arms a built-in design is checked in; "" checks
	// the design's control netlist as written.
	Arms []string
	// run checks one request, returning the arm it checked and one
	// report per checked unit.
	run func(ctx context.Context, req api.CheckRequest, met *flow.Metrics) (string, []api.CheckReportJSON, error)
}

var bothArms = []string{api.ModeUnopt, api.ModeOpt}

var registry = []*Checker{
	{Checker: flow.Chlint, Codes: analysis.Codes, Arms: []string{""}, run: runChlint},
	{Checker: flow.Bmlint, Codes: bmlint.Codes, Arms: bothArms, run: runBmlint},
	{Checker: flow.Netlint, Codes: netlint.Codes, Arms: bothArms, run: runNetlint},
	{Checker: flow.Hazver, Codes: hazver.Codes, Arms: bothArms, run: runHazver},
}

// Checkers returns the registry in pipeline order.
func Checkers() []*Checker { return registry }

// errUnknownChecker rejects check requests naming no registry entry.
var errUnknownChecker = errors.New("server: unknown checker")

// lookupChecker returns the registry entry named name.
func lookupChecker(name string) (*Checker, error) {
	for _, c := range registry {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w %q", errUnknownChecker, name)
}

// RunCheck runs one check request in process. The POST
// /api/v1/check/{checker} handler and the CLI's local path both call
// it, so the two answer byte-identical results. Unlike the flow's
// gates, error findings do not fail the request: the report is the
// product. met (nil for none) receives the timings of the synthesis
// the netlist-level checkers run.
func RunCheck(ctx context.Context, checker string, req api.CheckRequest, met *flow.Metrics) (*api.CheckResultJSON, error) {
	c, err := lookupChecker(checker)
	if err != nil {
		return nil, err
	}
	mode, reports, err := c.run(ctx, req, met)
	if err != nil {
		return nil, err
	}
	return &api.CheckResultJSON{Checker: c.Name, Mode: mode, Reports: reports}, nil
}

// armMode resolves a requested arm, "" meaning def.
func armMode(mode, def string) (string, error) {
	if mode == "" {
		mode = def
	}
	if mode != def && mode != api.ModeOpt && mode != api.ModeUnopt {
		return "", fmt.Errorf("server: unknown mode %q", mode)
	}
	return mode, nil
}

// checkNetlist resolves the netlist a check request names — a built-in
// design or parsed source text — and the design name its units are
// prefixed with.
func checkNetlist(req api.CheckRequest) (*core.Netlist, string, error) {
	if req.Design == "" {
		n, err := parseSource(api.JobRequest{Source: req.Source, Format: req.Format, Name: req.Name})
		if req.Name == "" {
			return n, "design", err
		}
		return n, req.Name, err
	}
	if req.Source != "" {
		return nil, "", fmt.Errorf("server: check request names both a design and source")
	}
	d, err := designs.ByName(req.Design)
	if err != nil {
		return nil, "", err
	}
	return d.Control(), d.Name, nil
}

// checkArm prepares the arm a check request names, def when it names
// none: the netlist (clustered for the optimized arm) and the mapping
// mode the arm synthesizes with. A def of "" checks the netlist as
// written unless an arm is requested.
func checkArm(ctx context.Context, req api.CheckRequest, def string) (string, string, *core.Netlist, techmap.Mode, error) {
	mode, err := armMode(req.Mode, def)
	if err != nil {
		return "", "", nil, 0, err
	}
	n, name, err := checkNetlist(req)
	if err != nil || mode != api.ModeOpt {
		return mode, name, n, techmap.AreaShared, err
	}
	n, _, err = core.OptimizeOpt(n, core.Options{
		MaxStates: req.Config.MaxStates, Workers: req.Config.Workers, Ctx: ctx,
	})
	return mode, name, n, techmap.SpeedSplit, err
}

// runChlint lints CH source (parse failures surface as CH000) under
// the request's File, or a built-in design's control netlist under its
// name.
func runChlint(_ context.Context, req api.CheckRequest, _ *flow.Metrics) (string, []api.CheckReportJSON, error) {
	if req.Design == "" {
		return "", []api.CheckReportJSON{api.CheckReport(req.File, nil, analysis.LintSource(req.Source))}, nil
	}
	d, err := designs.ByName(req.Design)
	if err != nil {
		return "", nil, err
	}
	return "", []api.CheckReportJSON{api.CheckReport(d.Name, nil, analysis.Analyze(d.Control()))}, nil
}

// runBmlint compiles every component of the netlist to its Burst-Mode
// specification and audits each — or, for Format "bms", lints the one
// spec given. Specs of a requested arm are named
// "<design>.<arm>.<component>"; without one, the netlist is checked as
// written and specs carry their component names.
func runBmlint(ctx context.Context, req api.CheckRequest, _ *flow.Metrics) (string, []api.CheckReportJSON, error) {
	if req.Format == api.FormatBMS {
		if strings.TrimSpace(req.Source) == "" {
			return "", nil, fmt.Errorf("server: bmlint request has empty source")
		}
		res := bmlint.LintSource(req.Source)
		if res.Name == "" {
			res.Name = req.Name
		}
		return "", []api.CheckReportJSON{api.CheckReport(res.Name, res.Stats, res.Diags)}, nil
	}
	mode, name, n, _, err := checkArm(ctx, req, "")
	if err != nil {
		return "", nil, err
	}
	specs, err := flow.BmlintNetlist(n)
	if err != nil {
		return "", nil, err
	}
	prefix := ""
	if mode != "" {
		prefix = name + "." + mode + "."
	}
	reports := make([]api.CheckReportJSON, 0, len(specs))
	for _, s := range specs {
		reports = append(reports, api.CheckReport(prefix+s.Name, s.Stats, s.Diags))
	}
	return mode, reports, nil
}

// runNetlint synthesizes the arm (default opt, no simulation) and
// audits every mapped controller plus the merged circuit.
func runNetlint(ctx context.Context, req api.CheckRequest, met *flow.Metrics) (string, []api.CheckReportJSON, error) {
	mode, name, n, tm, err := checkArm(ctx, req, api.ModeOpt)
	if err != nil {
		return "", nil, err
	}
	ctrls, merged, err := flow.NetlintNetlist(ctx, name, mode, n, tm, req.Config.Options(met))
	if err != nil {
		return "", nil, err
	}
	reports := make([]api.CheckReportJSON, 0, len(ctrls)+1)
	for _, c := range append(ctrls, merged) {
		reports = append(reports, api.CheckReport(c.Name, c.Stats, c.Diags))
	}
	return mode, reports, nil
}

// runHazver synthesizes the arm (default opt, no simulation) and
// statically verifies the mapped logic of every controller shape
// hazard-free on its specified bursts.
func runHazver(ctx context.Context, req api.CheckRequest, met *flow.Metrics) (string, []api.CheckReportJSON, error) {
	mode, name, n, tm, err := checkArm(ctx, req, api.ModeOpt)
	if err != nil {
		return "", nil, err
	}
	res, err := flow.HazverNetlist(ctx, name, mode, n, tm, req.Config.Options(met))
	if err != nil {
		return "", nil, err
	}
	return mode, []api.CheckReportJSON{api.CheckReport(res.Name, res.Stats, res.Diags)}, nil
}
