package rtlock

// Declarative run specifications. The paper's prototyping environment
// front end (the menu-driven User Interface plus Configuration Manager)
// lets an experimenter describe system configuration, database
// configuration, load characteristics, and the concurrency control to
// use; this file provides the equivalent as a JSON document that can be
// checked into an experiment directory and replayed exactly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Spec is a complete run description: the run config its JSON document
// selects by "mode" ("single" or "distributed"), exactly one of them
// set. The document's other keys are the config's json tags, durations
// in milliseconds; a key the config does not declare is an error.
type Spec struct {
	// Single is the single-site run (the setting of Figures 2–3).
	Single *SingleSiteConfig
	// Distributed is the distributed run (the setting of Figures 4–6).
	Distributed *DistributedConfig
}

// ParseSpec decodes and validates a JSON run specification.
func ParseSpec(data []byte) (*Spec, error) {
	var head struct {
		Mode     string   `json:"mode"`
		Protocol Protocol `json:"protocol"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("rtlock: parse spec: %w", err)
	}
	var s Spec
	var doc interface{ Validate() error } // the config, beside "mode"
	switch {
	case head.Mode == "single":
		s.Single = new(SingleSiteConfig)
		doc = &struct {
			Mode string `json:"mode"`
			*SingleSiteConfig
		}{SingleSiteConfig: s.Single}
	case head.Mode != "distributed":
		return nil, fmt.Errorf("rtlock: spec mode %q (want \"single\" or \"distributed\")", head.Mode)
	case head.Protocol != "" && head.Protocol != Ceiling:
		return nil, fmt.Errorf("rtlock: spec %q %s: distributed runs use the ceiling protocol %s", "protocol", head.Protocol, Ceiling)
	default:
		s.Distributed = new(DistributedConfig)
		doc = &struct {
			Mode     string   `json:"mode"`
			Protocol Protocol `json:"protocol"`
			*DistributedConfig
		}{DistributedConfig: s.Distributed}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(doc); err != nil {
		return nil, fmt.Errorf("rtlock: parse spec: %w", err)
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads a specification file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rtlock: load spec: %w", err)
	}
	return ParseSpec(data)
}

// Run executes the specification.
func (s *Spec) Run() (*Result, error) {
	switch {
	case s.Single != nil:
		return RunSingleSite(*s.Single)
	case s.Distributed != nil:
		return RunDistributed(*s.Distributed)
	}
	return nil, fmt.Errorf("rtlock: spec selects no run config")
}
