// Incremental resynthesis: a controller-grain artifact cache keyed by
// canonical subtree digests, so an edit-compile loop resynthesizes
// only the controllers whose canonical form actually changed and
// splices every untouched controller's netlist back in via
// gates.Netlist.Rename. The merged result is byte-identical to a
// from-scratch run — the canonical key (see ch.Canonicalize)
// guarantees a cached netlist is an exact wire-rename of what direct
// synthesis would have produced, and the cached blob round-trips the
// controller report exactly (Go's float64 JSON encoding is lossless).
package flow

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/gates"
	"balsabm/internal/techmap"
)

// ControllerCache is the controller-grain artifact tier consulted by
// the flow's synthesis cache: blobs of completed controller syntheses
// keyed by canonical subtree digest, surviving across runs (and, when
// backed by the durable store, across restarts and designs). Both
// methods are best-effort — a miss or a failed put costs one
// resynthesis, never correctness — and must be safe for concurrent
// use. *store.Store satisfies it.
type ControllerCache interface {
	// GetController returns the blob stored under key, if any.
	GetController(key string) ([]byte, bool)
	// PutController stores a blob under key.
	PutController(key string, blob []byte)
}

// MemoryControllerCache is the in-process ControllerCache: a plain
// keyed blob map. It is what a store-less daemon attaches to its jobs
// so controller reuse still works across submissions within one
// process lifetime.
type MemoryControllerCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemoryControllerCache returns an empty in-memory cache.
func NewMemoryControllerCache() *MemoryControllerCache {
	return &MemoryControllerCache{m: map[string][]byte{}}
}

// GetController returns the blob stored under key, if any.
func (c *MemoryControllerCache) GetController(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blob, ok := c.m[key]
	return blob, ok
}

// PutController stores a blob under key.
func (c *MemoryControllerCache) PutController(key string, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = blob
}

// Len returns the number of cached controllers.
func (c *MemoryControllerCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// synthVersion tags every controller key with the synthesis pipeline
// that produced the cached netlist, so a store written by an older
// pipeline never answers for a newer one. Change it whenever the same
// controller can synthesize to a different netlist — as when a prime
// enumeration that used to hit its node budget now finishes exactly
// and yields a different cover.
const synthVersion = "synth=2"

// ControllerKey is the cache key of one controller synthesis: the
// canonical subtree digest qualified by everything else that affects
// the synthesized netlist — the synthesis version, the mapping mode
// and whether the hazard audit gates the result. Wire names are
// deliberately absent: they are exactly what Rename substitutes on
// reuse, which is how a cached controller crosses designs.
func ControllerKey(mode techmap.Mode, audit bool, digest string) string {
	return fmt.Sprintf("ctl|%s|%s|audit=%t|%s", synthVersion, mode, audit, digest)
}

// controllerBlob is the durable form of one synthesized controller:
// the seeding component's wires in canonical channel order (what
// WireRenames maps from), its report, and its mapped netlist. The
// encoding is deterministic, so identical syntheses dedupe in the
// content-addressed store.
type controllerBlob struct {
	Wires   []string         `json:"wires"`
	Result  ControllerResult `json:"result"`
	Netlist json.RawMessage  `json:"netlist"`
}

// encodeController serializes a cache entry.
func encodeController(e *synthEntry) ([]byte, error) {
	nl, err := gates.EncodeJSON(e.netlist)
	if err != nil {
		return nil, err
	}
	return json.Marshal(controllerBlob{Wires: e.wires, Result: e.res, Netlist: nl})
}

// decodeController rebuilds a cache entry from its blob. Wire count
// must match the netlist decode's own validation; a blob that fails
// either check is treated as a miss by the caller.
func decodeController(data []byte) (*synthEntry, error) {
	var b controllerBlob
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flow: decode controller: %w", err)
	}
	nl, err := gates.DecodeJSON(b.Netlist)
	if err != nil {
		return nil, err
	}
	return &synthEntry{wires: b.Wires, netlist: nl, res: b.Result}, nil
}

// addDerivedRenames extends a wire substitution to the synthesis
// pipeline's derived net names. techmap names helper nets
// <var>_p$<id> and <var>_n$<id> after the variable they implement
// (every other Fresh prefix is a constant like "t" or "p"), so when a
// cached netlist's wires are renamed onto a new component's, those
// derived nets must carry the rename too — otherwise the spliced
// netlist would keep the seeding component's wire names inside helper
// nets and differ from what direct synthesis of the new component
// produces. The derived-name id is a function of circuit structure
// alone, which two programs sharing a canonical key have in common,
// so the extended rename is exactly direct synthesis's naming. The
// longest matching wire wins (unambiguous: two same-length distinct
// wires cannot both prefix one name at the same pattern position), so
// the result does not depend on map iteration order.
func addDerivedRenames(sub map[string]string, netNames []string) {
	wires := make([]string, 0, len(sub))
	for w := range sub {
		wires = append(wires, w)
	}
	for _, nm := range netNames {
		if _, ok := sub[nm]; ok {
			continue
		}
		best := ""
		for _, w := range wires {
			if len(w) > len(best) && (strings.HasPrefix(nm, w+"_p$") || strings.HasPrefix(nm, w+"_n$")) {
				best = w
			}
		}
		if best != "" {
			sub[nm] = sub[best] + nm[len(best):]
		}
	}
}

// IncrementalPlan partitions the components of an edited netlist
// against a base: which controllers an incremental run would reuse
// (canonical digest present in the base), which it must resynthesize,
// and which base controllers disappeared. It is a pure report over
// the submitted netlists — the flow's actual reuse decision is the
// same digest comparison made against the ControllerCache, but at the
// post-clustering grain and once per distinct shape (the in-run memo
// already folds duplicates), so the run's counters can undercount the
// plan when a design repeats a controller shape.
type IncrementalPlan struct {
	// Reused lists edited components (in netlist order) whose canonical
	// digest appears in the base.
	Reused []string
	// Resynthesize lists edited components needing fresh synthesis:
	// changed digests plus components the canonicalizer rejects.
	Resynthesize []string
	// BaseOnly lists base components (in netlist order) whose digest no
	// longer appears in the edited netlist.
	BaseOnly []string
}

// PlanIncremental diffs the per-controller canonical forms of an
// edited netlist against a base.
func PlanIncremental(base, edited *core.Netlist) *IncrementalPlan {
	baseDigests := map[string]bool{}
	for _, c := range base.Components {
		if d, ok := ch.ProgramDigest(c); ok {
			baseDigests[d] = true
		}
	}
	plan := &IncrementalPlan{}
	editedDigests := map[string]bool{}
	for _, c := range edited.Components {
		d, ok := ch.ProgramDigest(c)
		if ok {
			editedDigests[d] = true
		}
		if ok && baseDigests[d] {
			plan.Reused = append(plan.Reused, c.Name)
		} else {
			plan.Resynthesize = append(plan.Resynthesize, c.Name)
		}
	}
	for _, c := range base.Components {
		if d, ok := ch.ProgramDigest(c); !ok || !editedDigests[d] {
			plan.BaseOnly = append(plan.BaseOnly, c.Name)
		}
	}
	return plan
}

// String renders the plan for the CLI's -stats output.
func (p *IncrementalPlan) String() string {
	return fmt.Sprintf("incremental plan: %d reuse, %d resynthesize, %d base-only",
		len(p.Reused), len(p.Resynthesize), len(p.BaseOnly))
}
