package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/units"
)

// readerDesigns covers every optional part of the schema: the case-study
// designs, including a secondary window set (weekly vault F+I), plus a
// reliability model, a spare placement, an erasure-code level's sites and
// a design without a facility.
func readerDesigns(tb testing.TB) []*core.Design {
	ds := casestudy.WhatIfDesigns()
	for links := 1; links <= 10; links++ {
		ds = append(ds, casestudy.AsyncBMirror(links))
	}

	rel := casestudy.Baseline()
	rel.Name = "reliability model"
	rel.Devices[0].Spec.Reliability = device.Reliability{
		Failure: device.Distribution{Kind: device.DistWeibull, Mean: 5 * units.Year, Shape: 0.7},
		Repair:  device.Distribution{Kind: device.DistExponential, Mean: 8 * time.Hour},
	}
	spare := casestudy.Baseline()
	spare.Name = "spare placement"
	spare.Devices[0].SparePlacement = failure.Placement{Site: "spare-site", Region: "east"}
	noFacility := casestudy.AsyncBMirror(2)
	noFacility.Name = "no facility"
	noFacility.Facility = nil
	erasure, err := Unmarshal([]byte(erasureDesign))
	if err != nil {
		tb.Fatal(err)
	}
	return append(ds, rel, spare, noFacility, erasure)
}

// TestReaderAcceptsMarshal: the canonical reader decodes everything
// Marshal writes, to the value encoding/json decodes. A reader that
// declined here would only cost speed, which no other test notices.
func TestReaderAcceptsMarshal(t *testing.T) {
	var sawSecondary bool
	for _, d := range readerDesigns(t) {
		data, err := Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var got, want designJSON
		if !readCanonical(data, &got) {
			t.Errorf("%s: reader declined Marshal's output:\n%s", d.Name, data)
			continue
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reader decoded\n%+v\nencoding/json\n%+v", d.Name, got, want)
		}
		for _, l := range got.Levels {
			sawSecondary = sawSecondary || l.Policy.Secondary != nil
		}
	}
	if !sawSecondary {
		t.Error("no design carries a secondary window set")
	}
}

// FuzzUnmarshalMatchesJSON checks the canonical reader against
// encoding/json, the decoder of every input it declines: whatever the
// reader accepts, json.Unmarshal decodes without error to a
// reflect.DeepEqual value.
func FuzzUnmarshalMatchesJSON(f *testing.F) {
	for _, d := range readerDesigns(f) {
		data, err := Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	base, err := Marshal(casestudy.Baseline())
	if err != nil {
		f.Fatal(err)
	}
	s := string(base)
	facility := strings.Index(s, `"facility": `) + len(`"facility": `)
	// Each mutation leaves the canonical subset.
	for _, m := range []string{
		strings.Replace(s, `"costFactor"`, `"costFactr"`, 1),                    // unknown key
		strings.Replace(s, `"costFactor"`, `"CostFactor"`, 1),                   // upper-cased key
		strings.Replace(s, `"name": "Baseline"`, `"name": "A", "name": "B"`, 1), // duplicate key
		strings.Replace(s, `"Baseline"`, `"\u0042aseline"`, 1),                  // escape
		s[:facility] + "null\n}",                                                // null
		s + "x",                                                                 // trailing byte
		strings.Replace(s, `"Baseline"`, `"Baselïne"`, 1),                       // non-ASCII name
		strings.Replace(s, `"retCnt": 39`, `"retCnt": 3.9e1`, 1),                // exponent in an int field
	} {
		if m == s {
			f.Fatal("mutation left the design unchanged")
		}
		var dj designJSON
		if readCanonical([]byte(m), &dj) {
			f.Fatalf("reader accepted a non-canonical design:\n%s", m)
		}
		f.Add([]byte(m))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var got designJSON
		if !readCanonical(data, &got) {
			return
		}
		var want designJSON
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("reader accepted what encoding/json rejects (%v):\n%s", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reader decoded\n%+v\nencoding/json\n%+v\nfrom\n%s", got, want, data)
		}
	})
}

// unmarshalCase is a design's JSON and the allocation budget of its
// decode.
type unmarshalCase struct {
	name   string
	data   []byte
	budget float64
}

// unmarshalCases are the designs the end-to-end benchmark's Monte Carlo
// (an async mirror) and search (Baseline) requests start from.
func unmarshalCases(tb testing.TB) []unmarshalCase {
	var cases []unmarshalCase
	for _, c := range []struct {
		name   string
		d      *core.Design
		budget float64
	}{
		{"mirror", casestudy.AsyncBMirror(10), 16},
		{"baseline", casestudy.Baseline(), 19},
	} {
		data, err := Marshal(c.d)
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, unmarshalCase{c.name, data, c.budget})
	}
	return cases
}

// TestUnmarshalAllocBudget bounds the allocations of one decode. The
// mirror decode measures 14 and Baseline 17: the string copy of the
// input, each schema list once at its length, the optional schema
// objects, and the decoded design's own parts. Lists that regrow from
// empty (22 and 27), list temporaries that escape to the heap (18 and
// 21) or a copy per size or rate suffix (26 and 28) break the budgets.
func TestUnmarshalAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	for _, c := range unmarshalCases(t) {
		got := testing.AllocsPerRun(200, func() {
			if _, err := Unmarshal(c.data); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: allocs per decode: %.0f (budget %.0f)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: Unmarshal allocates %.0f, budget %.0f", c.name, got, c.budget)
		}
	}
}

// BenchmarkUnmarshal decodes the designs the end-to-end benchmark's Monte
// Carlo (an async mirror) and search (Baseline) requests start from.
func BenchmarkUnmarshal(b *testing.B) {
	for _, c := range unmarshalCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(c.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
