package core

import (
	"encoding/json"
	"fmt"
	"time"

	"anduril/internal/inject"
)

// ScriptFile is the serializable reproduction artifact of workflow step
// 4.a: everything needed to deterministically re-trigger the failure, plus
// the provenance of the search that found it. Seed is the seed of the
// reproducing run: the faults replay deterministically under it, not
// under an arbitrary one.
type ScriptFile struct {
	Target      string            `json:"target"`
	Issue       string            `json:"issue,omitempty"`
	Strategy    Strategy          `json:"strategy"`
	Faults      []inject.Instance `json:"faults"`
	Seed        int64             `json:"seed"`
	Rounds      int               `json:"rounds"`
	Elapsed     string            `json:"elapsed"`
	Observables int               `json:"relevant_observables"`
	Sites       int               `json:"candidate_sites"`
	Instances   int               `json:"candidate_instances"`
	GeneratedBy string            `json:"generated_by"`
}

// ScriptOf extracts the reproduction artifact from a report.
func ScriptOf(r *Report) (*ScriptFile, error) {
	if r == nil || !r.Reproduced || r.Script == nil {
		return nil, fmt.Errorf("core: no reproduction to export")
	}
	return newScript([]*Report{r}, []inject.Instance{*r.Script}, "anduril (feedback-driven fault injection)"), nil
}

// ScriptOfIter extracts the multi-fault artifact of an iterative run.
func ScriptOfIter(r *IterReport) (*ScriptFile, error) {
	if r == nil || !r.Reproduced || len(r.Scripts) == 0 {
		return nil, fmt.Errorf("core: no reproduction to export")
	}
	return newScript(r.Reports, r.Scripts, "anduril (iterative multi-fault mode)"), nil
}

// newScript builds the artifact of the search passes that reproduced the
// failure with the given faults. The last pass reproduced it, so its seed
// and candidate space describe the script; rounds and time add up.
func newScript(passes []*Report, faults []inject.Instance, generatedBy string) *ScriptFile {
	last := passes[len(passes)-1]
	s := &ScriptFile{
		Target:      last.Target,
		Issue:       last.Issue,
		Strategy:    last.Strategy,
		Faults:      append([]inject.Instance(nil), faults...),
		Seed:        last.ScriptSeed,
		Observables: last.RelevantObservables,
		Sites:       last.CandidateSites,
		Instances:   last.CandidateInstances,
		GeneratedBy: generatedBy,
	}
	var elapsed time.Duration
	for _, rep := range passes {
		s.Rounds += rep.Rounds
		elapsed += rep.Elapsed
	}
	s.Elapsed = elapsed.Round(time.Microsecond).String()
	return s
}

// Marshal renders the artifact as indented JSON.
func (s *ScriptFile) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// LoadScript parses a serialized reproduction artifact.
func LoadScript(data []byte) (*ScriptFile, error) {
	var s ScriptFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: bad script file: %w", err)
	}
	if len(s.Faults) == 0 {
		return nil, fmt.Errorf("core: script file has no faults")
	}
	return &s, nil
}

// Plan builds the injection plan the script describes.
func (s *ScriptFile) Plan() inject.Plan {
	if len(s.Faults) == 1 {
		return inject.Exact(s.Faults[0])
	}
	plans := make([]inject.Plan, len(s.Faults))
	for i, f := range s.Faults {
		plans[i] = inject.Exact(f)
	}
	return inject.Multi(plans...)
}
