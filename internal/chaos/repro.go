package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"stordep/internal/config"
	"stordep/internal/failure"
	"stordep/internal/sim"
	"stordep/internal/units"
)

// Repro files make a violating case replayable: the full design (the
// internal/config JSON schema, embedded verbatim) plus the fault schedule
// and scenario. A single-object case stores its design under "design"; a
// multi-object case stores it under "multiDesign", tags each outage with
// its object and may carry a "faultScenario" of correlated events and
// operator faults. The design key tells DecodeRepro which kind a file
// holds; Replay re-runs that kind's invariant battery.

// ReproMeta records why a repro was written.
type ReproMeta struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	Seed      int64  `json:"seed"`
	Run       int    `json:"run"`
}

type reproOutage struct {
	Object        string `json:"object,omitempty"`
	Level         int    `json:"level"`
	From          string `json:"from"`
	To            string `json:"to"`
	AbortInFlight bool   `json:"abortInFlight,omitempty"`
}

// reproFile is the on-disk form of both kinds. With this field order a
// single-object file holds exactly the keys of "design" files and a
// multi-object file exactly those of "multiDesign" files, so either kind
// encodes byte for byte as its own format always has.
type reproFile struct {
	ReproMeta
	Scope       string          `json:"scope"`
	TargetAge   string          `json:"targetAge"`
	RecoverSize int64           `json:"recoverSizeBytes,omitempty"`
	Horizon     string          `json:"horizon"`
	Outages     []reproOutage   `json:"outages,omitempty"`
	Design      json.RawMessage `json:"design,omitempty"`
	// FaultScenario embeds the internal/config scenario JSON (correlated
	// events plus operator faults) verbatim, like MultiDesign.
	FaultScenario json.RawMessage `json:"faultScenario,omitempty"`
	MultiDesign   json.RawMessage `json:"multiDesign,omitempty"`
}

func newReproOutage(object string, o sim.Outage) reproOutage {
	return reproOutage{
		Object:        object,
		Level:         o.Level,
		From:          units.FormatDuration(o.From),
		To:            units.FormatDuration(o.To),
		AbortInFlight: o.AbortInFlight,
	}
}

// encodeRepro serializes a case and its violation metadata to JSON. The
// design round-trips through internal/config, whose durations
// units.FormatDuration writes exactly.
func encodeRepro(t Trial, meta ReproMeta) ([]byte, error) {
	rf := reproFile{ReproMeta: meta}
	var (
		sc  failure.Scenario
		err error
	)
	switch c := t.(type) {
	case *Case:
		sc = c.Scenario
		rf.Horizon = units.FormatDuration(c.Horizon)
		for _, o := range c.Outages {
			rf.Outages = append(rf.Outages, newReproOutage("", o))
		}
		if rf.Design, err = config.Marshal(c.Design); err != nil {
			return nil, fmt.Errorf("chaos: marshaling design: %w", err)
		}
	case *MultiCase:
		sc = c.Scenario
		rf.Horizon = units.FormatDuration(c.Horizon)
		for _, o := range c.Outages {
			rf.Outages = append(rf.Outages, newReproOutage(o.Object, o.Outage))
		}
		if rf.MultiDesign, err = config.MarshalMulti(c.Design); err != nil {
			return nil, fmt.Errorf("chaos: marshaling multi design: %w", err)
		}
		if len(c.Events)+len(c.OpFaults) > 0 {
			if rf.FaultScenario, err = config.MarshalScenario(c.Events, c.OpFaults); err != nil {
				return nil, fmt.Errorf("chaos: marshaling fault scenario: %w", err)
			}
		}
	}
	rf.Scope = sc.Scope.String()
	rf.TargetAge = units.FormatDuration(sc.TargetAge)
	rf.RecoverSize = int64(sc.RecoverSize)
	return json.MarshalIndent(rf, "", "  ")
}

// DecodeRepro reconstructs a case (and its metadata) from repro JSON: a
// *Case when the file holds "design", a *MultiCase when it holds
// "multiDesign". A file with both keys or neither is an error.
func DecodeRepro(data []byte) (Trial, ReproMeta, error) {
	var rf reproFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, ReproMeta{}, fmt.Errorf("chaos: parsing repro: %w", err)
	}
	t, err := rf.trial()
	if err != nil {
		return nil, ReproMeta{}, fmt.Errorf("chaos: repro: %w", err)
	}
	return t, rf.ReproMeta, nil
}

// trial rebuilds the case a decoded file describes.
func (rf *reproFile) trial() (Trial, error) {
	single, multi := len(rf.Design) > 0, len(rf.MultiDesign) > 0
	if single == multi {
		return nil, errors.New(`want exactly one of "design" and "multiDesign"`)
	}
	scope, err := failure.ParseScope(rf.Scope)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	age, err := units.ParseDuration(rf.TargetAge)
	if err != nil {
		return nil, fmt.Errorf("target age: %w", err)
	}
	horizon, err := units.ParseDuration(rf.Horizon)
	if err != nil {
		return nil, fmt.Errorf("horizon: %w", err)
	}
	sc := failure.Scenario{Scope: scope, TargetAge: age, RecoverSize: units.ByteSize(rf.RecoverSize)}
	outs := make([]ObjectOutage, len(rf.Outages))
	for i, o := range rf.Outages {
		from, err := units.ParseDuration(o.From)
		if err != nil {
			return nil, fmt.Errorf("outage: %w", err)
		}
		to, err := units.ParseDuration(o.To)
		if err != nil {
			return nil, fmt.Errorf("outage: %w", err)
		}
		if single && o.Object != "" {
			return nil, fmt.Errorf("outage names object %q in a single-object case", o.Object)
		}
		outs[i] = ObjectOutage{
			Object: o.Object,
			Outage: sim.Outage{Level: o.Level, From: from, To: to, AbortInFlight: o.AbortInFlight},
		}
	}

	if single {
		if len(rf.FaultScenario) > 0 {
			return nil, errors.New(`a fault scenario needs a "multiDesign"`)
		}
		d, err := config.Unmarshal(rf.Design)
		if err != nil {
			return nil, fmt.Errorf("design: %w", err)
		}
		cs := &Case{Design: d, Scenario: sc, Horizon: horizon}
		for _, o := range outs {
			cs.Outages = append(cs.Outages, o.Outage)
		}
		return cs, nil
	}
	md, err := config.UnmarshalMulti(rf.MultiDesign)
	if err != nil {
		return nil, fmt.Errorf("multi design: %w", err)
	}
	mcs := &MultiCase{Design: md, Scenario: sc, Horizon: horizon}
	if len(outs) > 0 {
		mcs.Outages = outs
	}
	if len(rf.FaultScenario) > 0 {
		if mcs.Events, mcs.OpFaults, err = config.UnmarshalScenario(rf.FaultScenario); err != nil {
			return nil, fmt.Errorf("fault scenario: %w", err)
		}
	}
	return mcs, nil
}

// SaveRepro writes a repro file, creating the directory if needed.
func SaveRepro(path string, t Trial, meta ReproMeta) error {
	data, err := encodeRepro(t, meta)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Replay re-runs a case's invariant battery and returns any violations
// (with Run left zero).
func Replay(t Trial) ([]Violation, error) {
	res, err := t.check()
	if err != nil {
		return nil, err
	}
	return res.violations, nil
}

// copyTrial deep-copies a case by round-tripping it through the repro
// encoding, guaranteeing the shrinker never aliases the original.
func copyTrial[T Trial](t T) (T, error) {
	var zero T
	data, err := encodeRepro(t, ReproMeta{})
	if err != nil {
		return zero, err
	}
	out, _, err := DecodeRepro(data)
	if err != nil {
		return zero, err
	}
	return out.(T), nil
}
