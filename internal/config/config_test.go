package config

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
)

// TestRoundTripAllCaseStudyDesigns: every Table 7 design survives a
// marshal/unmarshal cycle and evaluates identically afterwards.
func TestRoundTripAllCaseStudyDesigns(t *testing.T) {
	scs := failure.CaseStudyScenarios()
	for _, d := range casestudy.WhatIfDesigns() {
		t.Run(d.Name, func(t *testing.T) {
			data, err := Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("unmarshal: %v\n%s", err, data)
			}
			origSys, err := core.Build(d)
			if err != nil {
				t.Fatal(err)
			}
			backSys, err := core.Build(back)
			if err != nil {
				t.Fatalf("rebuilt design invalid: %v", err)
			}
			// Identical outlays and identical assessments.
			if o1, o2 := origSys.Outlays().Total(), backSys.Outlays().Total(); o1 != o2 {
				t.Errorf("outlays changed: %v -> %v", o1, o2)
			}
			for _, sc := range scs {
				a1, err := origSys.Assess(sc)
				if err != nil {
					t.Fatal(err)
				}
				a2, err := backSys.Assess(sc)
				if err != nil {
					t.Fatal(err)
				}
				if a1.RecoveryTime != a2.RecoveryTime {
					t.Errorf("%s RT changed: %v -> %v", sc.DisplayName(), a1.RecoveryTime, a2.RecoveryTime)
				}
				if a1.DataLoss != a2.DataLoss {
					t.Errorf("%s DL changed: %v -> %v", sc.DisplayName(), a1.DataLoss, a2.DataLoss)
				}
				if a1.Cost.Total() != a2.Cost.Total() {
					t.Errorf("%s cost changed: %v -> %v", sc.DisplayName(), a1.Cost.Total(), a2.Cost.Total())
				}
			}
		})
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := Save(path, casestudy.Baseline()); err != nil {
		t.Fatal(err)
	}
	d, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "Baseline" {
		t.Errorf("name = %q", d.Name)
	}
	if _, err := core.Build(d); err != nil {
		t.Errorf("loaded design invalid: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestMarshalReadable(t *testing.T) {
	data, err := Marshal(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`"dataCap": "1360GB"`,
		`"unavailPenaltyPerHour": 50000`,
		`"kind": "storage"`,
		`"type": "split-mirror"`,
		`"accW": "12h"`,
		`"retW": "3yr"`,
		`"kind": "dedicated"`,
		`"costFactor": 0.2`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("marshaled JSON missing %s:\n%s", want, s)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"syntax", `{`},
		{"bad size", `{"workload":{"dataCap":"x","avgAccessRate":"1MB/s","avgUpdateRate":"1MB/s"}}`},
		{"bad rate", `{"workload":{"dataCap":"1GB","avgAccessRate":"x","avgUpdateRate":"1MB/s"}}`},
		{"bad update rate", `{"workload":{"dataCap":"1GB","avgAccessRate":"1MB/s","avgUpdateRate":"x"}}`},
		{"bad curve window", `{"workload":{"dataCap":"1GB","avgAccessRate":"1MB/s","avgUpdateRate":"1MB/s","batchCurve":[{"window":"x","rate":"1MB/s"}]}}`},
		{"bad curve rate", `{"workload":{"dataCap":"1GB","avgAccessRate":"1MB/s","avgUpdateRate":"1MB/s","batchCurve":[{"window":"1h","rate":"x"}]}}`},
		{"bad device kind", validWorkload + `,"devices":[{"spec":{"name":"d","kind":"alien","cost":{}}}]}`},
		{"bad slot cap", validWorkload + `,"devices":[{"spec":{"name":"d","kind":"storage","slotCap":"x","cost":{}}}]}`},
		{"bad spare kind", validWorkload + `,"devices":[{"spec":{"name":"d","kind":"storage","cost":{},"spare":{"kind":"alien"}}}]}`},
		{"bad level type", validWorkload + `,"levels":[{"type":"alien","policy":{"accW":"1h","retCnt":1,"retW":"1d"}}]}`},
		{"bad policy accW", validWorkload + `,"levels":[{"type":"backup","policy":{"accW":"x","retCnt":1,"retW":"1d"}}]}`},
		{"missing accW", validWorkload + `,"levels":[{"type":"backup","policy":{"retCnt":1,"retW":"1d"}}]}`},
		{"bad rep", validWorkload + `,"levels":[{"type":"backup","policy":{"accW":"1h","retCnt":1,"retW":"1d","copyRep":"alien"}}]}`},
		{"bad mirror mode", validWorkload + `,"levels":[{"type":"mirror","mode":"alien","policy":{"accW":"1h","retCnt":1,"retW":"1d"}}]}`},
		{"bad facility", validWorkload + `,"facility":{"provisionTime":"x"}}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal([]byte(tt.json)); !errors.Is(err, ErrBadDesign) {
				t.Errorf("Unmarshal = %v, want ErrBadDesign", err)
			}
		})
	}
}

// TestUnmarshalRejectsNonFinite: a size or rate that is not a finite
// number fails to decode. NaN compares false against every check, so such
// a design used to validate and build, with NaN or negative results.
func TestUnmarshalRejectsNonFinite(t *testing.T) {
	data, err := Marshal(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct{ old, new string }{
		{`"dataCap": "1360GB"`, `"dataCap": "NaNGB"`},
		{`"slotCap": "73GB"`, `"slotCap": "NaNGB"`},
		{`"slotCap": "73GB"`, `"slotCap": "InfGB"`},
		{`"enclBW": "512MB/s"`, `"enclBW": "NaNMB/s"`},
	} {
		js := strings.Replace(string(data), sub.old, sub.new, 1)
		if js == string(data) {
			t.Fatalf("Baseline's JSON has no %s", sub.old)
		}
		if _, err := Unmarshal([]byte(js)); !errors.Is(err, ErrBadDesign) {
			t.Errorf("%s: Unmarshal = %v, want ErrBadDesign", sub.new, err)
		}
	}
}

const validWorkload = `{"workload":{"dataCap":"1GB","avgAccessRate":"1MB/s","avgUpdateRate":"1MB/s"}`

func TestDecodeDefaults(t *testing.T) {
	// Representations default to full (primary) / partial (secondary);
	// spare defaults to none.
	js := validWorkload + `,
	  "primary":{"array":"a"},
	  "devices":[{"spec":{"name":"a","kind":"storage","cost":{}}}],
	  "levels":[{"type":"backup","sourceArray":"a","target":"b",
	    "policy":{"accW":"48h","retCnt":1,"retW":"1d",
	      "secondary":{"accW":"24h"},"cycleCnt":2}}]}`
	d, err := Unmarshal([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	pol := d.Levels[0].Level().Policy
	if pol.CopyRep.String() != "full" || pol.Primary.Rep.String() != "full" {
		t.Errorf("primary rep defaults: %+v", pol)
	}
	if pol.Secondary.Rep.String() != "partial" {
		t.Errorf("secondary rep default: %v", pol.Secondary.Rep)
	}
	if d.Devices[0].Spec.Spare.Kind.String() != "none" {
		t.Errorf("spare default: %v", d.Devices[0].Spec.Spare.Kind)
	}
}

func TestMarshalRejectsIncompleteDesign(t *testing.T) {
	if _, err := Marshal(&core.Design{}); !errors.Is(err, ErrBadDesign) {
		t.Errorf("Marshal(empty) = %v", err)
	}
}

// erasureDesign has an erasure-code level spreading fragments over
// three sites.
const erasureDesign = `{"workload":{"dataCap":"100GB","avgAccessRate":"1MB/s","avgUpdateRate":"1MB/s","burstMult":2,
	    "batchCurve":[{"window":"1h","rate":"0.5MB/s"}]},
	  "primary":{"array":"a0"},
	  "devices":[
	    {"spec":{"name":"a0","kind":"storage","maxCapSlots":10,"slotCap":"100GB","maxBWSlots":4,"slotBW":"50MB/s","cost":{}}},
	    {"spec":{"name":"f1","kind":"storage","maxCapSlots":10,"slotCap":"100GB","maxBWSlots":4,"slotBW":"50MB/s","cost":{}}},
	    {"spec":{"name":"f2","kind":"storage","maxCapSlots":10,"slotCap":"100GB","maxBWSlots":4,"slotBW":"50MB/s","cost":{}}},
	    {"spec":{"name":"f3","kind":"storage","maxCapSlots":10,"slotCap":"100GB","maxBWSlots":4,"slotBW":"50MB/s","cost":{}}},
	    {"spec":{"name":"wan","kind":"interconnect","maxBWSlots":2,"slotBW":"19.375MB/s","cost":{}}}
	  ],
	  "levels":[{"type":"erasure-code","fragments":3,"threshold":2,
	    "sites":["f1","f2","f3"],"links":"wan",
	    "policy":{"accW":"1h","propW":"1h","retCnt":2,"retW":"2h"}}]}`

func TestErasureRoundTrip(t *testing.T) {
	d, err := Unmarshal([]byte(erasureDesign))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("decoded erasure design invalid: %v", err)
	}
	data, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped erasure design invalid: %v", err)
	}
	if len(back.Levels) != 1 || back.Levels[0].Name() != "erasure-code" {
		t.Errorf("levels = %v", back.Levels)
	}
}

// TestPolicyRoundTrip: standalone policies survive MarshalPolicy /
// UnmarshalPolicy exactly — the distributed-search wire format ships
// policy-knob options this way, and any drift would make a remote
// worker's candidates diverge from the coordinator's.
func TestPolicyRoundTrip(t *testing.T) {
	for _, pol := range []struct {
		name string
		p    hierarchy.Policy
	}{
		{"split-mirror", casestudy.SplitMirrorPolicy()},
		{"backup", casestudy.BackupPolicy()},
		{"vault", casestudy.VaultPolicy()},
	} {
		t.Run(pol.name, func(t *testing.T) {
			data, err := MarshalPolicy(pol.p)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalPolicy(data)
			if err != nil {
				t.Fatalf("unmarshal: %v\n%s", err, data)
			}
			data2, err := MarshalPolicy(back)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(data2) {
				t.Errorf("policy did not round trip:\n%s\nvs\n%s", data, data2)
			}
		})
	}
	if _, err := UnmarshalPolicy([]byte(`{"accW":"bogus"}`)); !errors.Is(err, ErrBadDesign) {
		t.Errorf("bad policy: err = %v, want ErrBadDesign", err)
	}
	if _, err := UnmarshalPolicy([]byte(`{`)); !errors.Is(err, ErrBadDesign) {
		t.Errorf("truncated policy: err = %v, want ErrBadDesign", err)
	}
}
